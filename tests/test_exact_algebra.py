"""Tests for exact coefficient fields and polynomial arithmetic."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from surfres.exact_algebra import (
    FieldDescriptor,
    Fp,
    Fq,
    InputError,
    Polynomial,
    RatFunc,
    ScopeError,
    UnsupportedOperationError,
    fp_divmod,
    fp_gcd,
    fp_is_irreducible,
    fp_mul,
    hasse_derivative,
    ord_at,
    p_th_root,
    parse_polynomial,
    primitive_vector,
    q_th_root,
    substitute,
    substitute_many,
    to_string,
)

from oracles import Monomial, coefficient, make, terms, zero_polynomial

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)

FIELDS = [QQ, F2, F3]
VAR_POOL = ("x", "y", "z", "w")


def random_polynomial(rng: random.Random, field: FieldDescriptor,
                      variables: tuple[str, ...], max_degree: int = 6,
                      max_terms: int = 6) -> Polynomial:
    terms: dict[Monomial, object] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[str, int] = {}
        budget = rng.randint(0, max_degree)
        for v in variables:
            if budget <= 0:
                break
            e = rng.randint(0, budget)
            if e:
                exps[v] = e
                budget -= e
        if field.kind == "rationals":
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            c = field.from_int(rng.randint(0, field.characteristic - 1))
        m = Monomial.from_dict(exps)
        terms[m] = terms.get(m, field.zero()) + c
    return make(field, variables, terms)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

def test_fp_arithmetic():
    a, b = Fp(3, 5), Fp(4, 5)
    assert a + b == Fp(2, 5)
    assert a * b == Fp(2, 5)
    assert (a / b) * b == a
    assert -a == Fp(2, 5)
    assert a ** 4 == Fp(1, 5)


def test_ratfunc_reduction_and_field_axioms():
    t = RatFunc((0, 1), (1,), 3)
    one = RatFunc((1,), (1,), 3)
    # (t^2 - 1)/(t - 1) reduces to t + 1
    r = RatFunc((2, 0, 1), (2, 1), 3)
    assert r == t + one
    assert (t / t) == one
    assert t * t == t ** 2
    assert bool(t - t) is False


def test_ratfunc_denominator_is_monic():
    # 1/(2t) over F_3 normalizes to 2/t  (monic denominator)
    r = RatFunc((1,), (0, 2), 3)
    assert r.den == (0, 1)
    assert r.num == (2,)


def test_finite_extension_field():
    # F_4 = F_2[s]/(s^2 + s + 1)
    F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
    s = F4.generator()
    assert s * s == s + F4.one()
    assert s ** 3 == F4.one()
    assert (F4.one() / s) * s == F4.one()


def test_field_descriptor_validation():
    with pytest.raises(InputError):
        FieldDescriptor("prime_field", 4)
    with pytest.raises(InputError):
        FieldDescriptor("rationals", 5)
    with pytest.raises(InputError):
        FieldDescriptor("rational_functions_over_prime_field", 3)


# ---------------------------------------------------------------------------
# polynomial arithmetic: ring axioms and canonical form
# ---------------------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(20260823)
    for trial in range(120):
        field = FIELDS[trial % len(FIELDS)]
        nvars = rng.randint(1, 4)
        vs = VAR_POOL[:nvars]
        f = random_polynomial(rng, field, vs)
        g = random_polynomial(rng, field, vs)
        h = random_polynomial(rng, field, vs)
        assert (f + g) * h == f * h + g * h
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f - f == zero_polynomial(field, vs)


def test_canonical_ordering():
    f = parse_polynomial("y^9*z^10 + x^2", QQ, ("x", "y", "z"))
    assert to_string(f) == "x^2 + y^9*z^10"
    g = parse_polynomial("z^3 + y*z + x + 5", QQ, ("x", "y", "z"))
    assert to_string(g) == "5 + x + y*z + z^3"


def test_total_degree_and_queries():
    f = parse_polynomial("x^2 + y^9*z^10", QQ, ("x", "y", "z"))
    assert f.total_degree() == 19
    assert f.support_variables() == {"x", "y", "z"}
    assert not f.is_constant()
    assert zero_polynomial(QQ, ("x",)).is_zero


# ---------------------------------------------------------------------------
# ord_at
# ---------------------------------------------------------------------------

def test_ord_at_examples():
    f = parse_polynomial("x^2 + y^9*z^10", QQ, ("x", "y", "z"))
    assert ord_at(f, ("x", "y", "z")) == 2
    assert ord_at(f, ("x", "y")) == 2
    assert ord_at(f, ("y",)) == 0
    assert ord_at(f, ("x", "z")) == 2  # min(2, 10)
    zero = zero_polynomial(QQ, ("x",))
    assert ord_at(zero, ("x",)) == float("inf")
    with pytest.raises(InputError):
        ord_at(f, ("q",))


# ---------------------------------------------------------------------------
# Hasse derivatives and the Taylor identity
# ---------------------------------------------------------------------------

def taylor_expansion_matches(f: Polynomial) -> bool:
    """Check f(X + Z) == Σ_A D_A f · Z^A with fresh shift variables Z."""
    field, vs = f.field, f.variables
    shift = {v: f"d{v}" for v in vs}
    ext = vs + tuple(shift[v] for v in vs)
    lift = make(field, ext, dict(terms(f)))
    shifted = substitute_many(
        lift,
        {
            v: Polynomial.variable(field, ext, v) + Polynomial.variable(field, ext, shift[v])
            for v in vs
        },
    )
    deg = int(f.total_degree()) if not f.is_zero else 0
    total = zero_polynomial(field, ext)
    for combo in itertools.product(range(deg + 1), repeat=len(vs)):
        if sum(combo) > deg:
            continue
        a = {v: e for v, e in zip(vs, combo) if e}
        d = hasse_derivative(f, a)
        if d.is_zero:
            continue
        dz = make(field, ext, dict(terms(d)))
        zmono = Monomial.from_dict({shift[v]: e for v, e in a.items()})
        total = total + dz * make(field, ext, {zmono: field.one()})
    return shifted == total


def test_hasse_derivative_char2():
    # D_{x} of x^2 vanishes in characteristic 2, but D_{x,2} does not.
    f = parse_polynomial("x^2", F2, ("x",))
    assert hasse_derivative(f, {"x": 1}).is_zero
    assert to_string(hasse_derivative(f, {"x": 2})) == "1"


def test_hasse_derivative_is_divided_power():
    f = parse_polynomial("x^5", QQ, ("x",))
    # D_{x,2} x^5 = C(5,2) x^3 = 10 x^3
    assert to_string(hasse_derivative(f, {"x": 2})) == "10*x^3"


def test_taylor_identity_random():
    rng = random.Random(987123)
    for trial in range(210):
        field = FIELDS[trial % len(FIELDS)]
        nvars = rng.randint(1, 4)
        vs = VAR_POOL[:nvars]
        f = random_polynomial(rng, field, vs, max_degree=6, max_terms=5)
        assert taylor_expansion_matches(f), f"Taylor identity failed: {to_string(f)}"


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_identity():
    f = parse_polynomial("x^2 + y^9*z^10", QQ, ("x", "y", "z"))
    assert substitute(f, "x", Polynomial.variable(QQ, f.variables, "x")) == f


def test_substitute_translation_char2():
    vs = ("y", "u1", "u2")
    f = parse_polynomial("y^4 + y^2 + u1^6 + u2^5", F2, vs)
    g = substitute(f, "y", parse_polynomial("y + u1^3", F2, vs))
    assert g == parse_polynomial("y^4 + y^2 + u1^12 + u2^5", F2, vs)
    assert to_string(g) == "y^2 + y^4 + u2^5 + u1^12"


def test_substitute_transcendental_coefficient():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        vs = ("y", "z", "u1", "u2")
        f = parse_polynomial(f"y^{p} + t*u1^{p}", K, vs)
        g = substitute(f, "y", parse_polynomial("z - u1*u2", K, vs))
        expect = parse_polynomial(f"z^{p} + t*u1^{p} - u2^{p}*u1^{p}", K, vs)
        assert g == expect


def test_substitute_round_trip():
    rng = random.Random(5511)
    for trial in range(60):
        field = FIELDS[trial % len(FIELDS)]
        vs = ("x", "y", "z")
        f = random_polynomial(rng, field, vs)
        c = parse_polynomial("x^2*z", field, vs)
        y = Polynomial.variable(field, vs, "y")
        there = substitute(f, "y", y + c)
        back = substitute(there, "y", y - c)
        assert back == f


def test_substitute_many_is_simultaneous():
    # Swap x and y: sequential substitution would collapse both to one variable.
    f = parse_polynomial("x^2 + y^3", QQ, ("x", "y"))
    swapped = substitute_many(
        f,
        {
            "x": Polynomial.variable(QQ, f.variables, "y"),
            "y": Polynomial.variable(QQ, f.variables, "x"),
        },
    )
    assert swapped == parse_polynomial("y^2 + x^3", QQ, ("x", "y"))


# ---------------------------------------------------------------------------
# p-th roots
# ---------------------------------------------------------------------------

def test_p_th_root_prime_field():
    assert p_th_root(Fp(2, 5), F5) == Fp(2, 5)
    assert p_th_root(Fp(2, 5), F5) ** 5 == Fp(2, 5)


def test_p_th_root_rational_functions():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        t = K.transcendental()
        assert p_th_root(t ** p, K) == t
        assert p_th_root(t, K) is None
        # round trip on a composite element
        c = (t ** 2 + K.one()) / t
        cp = c ** p
        assert p_th_root(cp, K) == c


def test_p_th_root_finite_extension():
    F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
    s = F4.generator()
    r = p_th_root(s, F4)
    assert r is not None and r * r == s


def test_p_th_root_char_zero_rejected():
    with pytest.raises(UnsupportedOperationError):
        p_th_root(Fraction(4), QQ)


# ---------------------------------------------------------------------------
# q-th roots, irreducibility and normal forms over F_p[t]
# ---------------------------------------------------------------------------

def old_p_th_root(c, field):
    """p-th roots as computed before ``q_th_root``: a power of the generator
    over F_{p^d}, and over F_p(t) the numerator and denominator rooted
    separately."""
    p = field.characteristic
    if field.kind == "prime_field":
        return c
    if field.kind == "finite_field_extension":
        return c ** (p ** (len(field.modulus) - 2))
    if not c.num:
        return c

    def root(coeffs):
        if (len(coeffs) - 1) % p != 0:
            return None
        out = [0] * ((len(coeffs) - 1) // p + 1)
        for i, a in enumerate(coeffs):
            if i % p == 0:
                out[i // p] = a
            elif a != 0:
                return None
        return tuple(out)

    rn, rd = root(c.num), root(c.den)
    if rn is None or rd is None:
        return None
    return RatFunc(rn, rd, p, c.name)


def old_q_th_root(c, q, field):
    """The reference q-th root: the old p-th root, iterated."""
    while q > 1:
        c = old_p_th_root(c, field)
        if c is None:
            return None
        q //= field.characteristic
    return c


def random_ratfunc(rng, p):
    num = tuple(rng.randrange(p) for _ in range(rng.randint(0, 4)))
    den = tuple(rng.randrange(p) for _ in range(rng.randint(0, 3))) + (
        rng.randrange(1, p),)
    return RatFunc(num, den, p, "t")


def _root_cases():
    rng = random.Random(20141)
    for p, modulus in ((5, None), (2, (1, 1, 1)), (2, (1, 1, 0, 1))):
        field = (FieldDescriptor.prime_field(p) if modulus is None
                 else FieldDescriptor.finite_extension(p, modulus))
        yield field, field.elements()
    for p in (2, 3, 5):
        field = FieldDescriptor.rational_functions(p, "t")
        elements = [random_ratfunc(rng, p) for _ in range(12)]
        yield field, elements + [c ** p for c in elements] + [
            c ** (p * p) for c in elements[:4]]


@pytest.mark.parametrize("field, elements", list(_root_cases()),
                         ids=["F5", "F4", "F8", "F2(t)", "F3(t)", "F5(t)"])
def test_q_th_root_matches_the_iterated_p_th_root(field, elements):
    p = field.characteristic
    for q in (p, p * p):
        for c in elements:
            assert q_th_root(c, q, field) == old_q_th_root(c, q, field)
            assert q_th_root(c ** q, q, field) == c


def test_q_th_root_in_characteristic_zero_only_for_q_one():
    assert q_th_root(Fraction(4), 1, QQ) == Fraction(4)
    with pytest.raises(UnsupportedOperationError):
        q_th_root(Fraction(4), 2, QQ)


def test_fp_is_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.galoistools import gf_irreducible_p
    for p, top in ((2, 6), (3, 6), (5, 4), (7, 4)):
        for d in range(top + 1):
            for lower in itertools.product(range(p), repeat=d):
                for lead in range(1, p):
                    a = lower + (lead,)
                    expected = d >= 1 and gf_irreducible_p(
                        list(reversed(a)), p, sympy.ZZ)
                    assert fp_is_irreducible(a, p) == expected, (a, p)


def old_primitive_vector(vec, p):
    """The normal form as computed before ``primitive_vector``: clear the
    least common multiple of the denominators, divide by the gcd of the
    numerators, then make the first nonzero entry monic."""
    den_lcm = (1,)
    for c in vec:
        if c:
            g = fp_gcd(den_lcm, c.den, p)
            den_lcm = fp_mul(fp_divmod(den_lcm, g, p)[0], c.den, p)
    scaled = [c * RatFunc(den_lcm, (1,), p) for c in vec]
    num_gcd = ()
    for c in scaled:
        if c:
            num_gcd = fp_gcd(num_gcd, c.num, p) if num_gcd else c.num
    scaled = [c / RatFunc(num_gcd, (1,), p) for c in scaled]
    lead = next(c for c in scaled if c)
    return [c / RatFunc((lead.num[-1],), (1,), p) for c in scaled]


def test_primitive_vector_matches_the_lcm_normal_form():
    rng = random.Random(7975)
    for p in (2, 3, 5):
        for _ in range(60):
            vec = [random_ratfunc(rng, p) for _ in range(rng.randint(1, 4))]
            if not any(vec):
                continue
            expected = old_primitive_vector(vec, p)
            assert primitive_vector(vec) == expected
            factor = random_ratfunc(rng, p)
            if factor:
                assert primitive_vector([c * factor for c in vec]) == expected


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_basic_forms():
    f = parse_polynomial("3*x^2 - y/2 + 1", QQ, ("x", "y"))
    assert coefficient(f, Monomial.from_dict({"x": 2})) == Fraction(3)
    assert coefficient(f, Monomial.from_dict({"y": 1})) == Fraction(-1, 2)
    assert f.constant_coefficient() == Fraction(1)


def test_parse_parenthesized():
    f = parse_polynomial("(y + u1)^3", QQ, ("y", "u1"))
    g = parse_polynomial("y^3 + 3*y^2*u1 + 3*y*u1^2 + u1^3", QQ, ("y", "u1"))
    assert f == g


def test_parse_transcendental():
    K = FieldDescriptor.rational_functions(2, "t")
    f = parse_polynomial("y^2 + t*u1^2", K, ("y", "u1"))
    t = K.transcendental()
    assert coefficient(f, Monomial.from_dict({"u1": 2})) == t


def test_parse_errors():
    with pytest.raises(InputError):
        parse_polynomial("x + q", QQ, ("x",))
    with pytest.raises(InputError):
        parse_polynomial("x + ", QQ, ("x",))
    with pytest.raises(InputError):
        parse_polynomial("1/x", QQ, ("x",))
    with pytest.raises(InputError):
        parse_polynomial("x $ y", QQ, ("x", "y"))
    with pytest.raises(InputError):
        parse_polynomial("", QQ, ("x",))


def test_round_trip_random():
    rng = random.Random(424242)
    for trial in range(120):
        field = FIELDS[trial % len(FIELDS)]
        nvars = rng.randint(1, 4)
        vs = VAR_POOL[:nvars]
        f = random_polynomial(rng, field, vs)
        assert parse_polynomial(to_string(f), field, vs) == f


def test_round_trip_rational_functions():
    K = FieldDescriptor.rational_functions(3, "t")
    t = K.transcendental()
    c = (t ** 2 + K.from_int(2)) / (t + K.one())
    f = make(K, ("x", "y"), {Monomial.from_dict({"x": 1, "y": 2}): c,
                             Monomial(): t})
    assert parse_polynomial(to_string(f), K, ("x", "y")) == f


def test_finite_field_elements_in_product_order():
    assert F5.elements() == [F5.from_int(i) for i in range(5)]
    modulus = (1, 1, 1)  # s^2 + s + 1 over F_2
    F4 = FieldDescriptor.finite_extension(2, modulus)
    assert F4.elements() == [
        Fq(combo, 2, modulus, "s")
        for combo in itertools.product(range(2), repeat=2)]
    assert len(set(map(str, F4.elements()))) == 4
    for field in (QQ, FieldDescriptor.rational_functions(3, "t")):
        with pytest.raises(InputError):
            field.elements()


def test_finite_fields_over_the_size_limit_are_not_searched():
    F64 = FieldDescriptor.finite_extension(2, (1, 1, 0, 0, 0, 0, 1))
    assert len(F64.elements()) == 64
    F128 = FieldDescriptor.finite_extension(2, (1, 1, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ScopeError, match="MAX_CHARACTERISTIC"):
        F128.elements()


# ---------------------------------------------------------------------------
# stored coefficients: field-native form, public elements at the boundary
# ---------------------------------------------------------------------------

def stored_form_problems(f: Polynomial) -> list[str]:
    """Each stored coefficient of f that is not in its field's native form:
    over Q an int or a Fraction with a denominator, over F_p an int residue
    in [0, p), and never zero."""
    kind, p = f.field.kind, f.field.characteristic
    problems = []
    for vec, c in f.vectors:
        if kind == "rationals":
            ok = (type(c) is int and c != 0) or (
                type(c) is Fraction and c.denominator != 1)
        elif kind == "prime_field":
            ok = type(c) is int and 0 < c < p
        else:
            ok = type(c) in (Fq, RatFunc) and bool(c)
        if not ok:
            problems.append(f"{vec}: {c!r}")
    return problems


@pytest.mark.parametrize("field", [QQ, F5, FieldDescriptor.prime_field(97)],
                         ids=lambda k: f"F{k.characteristic}" if k.characteristic else "Q")
def test_constructors_refuse_floats(field):
    vs = ("x", "y")
    half = 1 / 2  # a float: int / int is true division
    with pytest.raises(TypeError):
        make(field, vs, {Monomial.from_dict({"x": 1}): half})
    with pytest.raises(TypeError):
        Polynomial.from_vectors(field, vs, {(1, 0): 1.0})
    with pytest.raises(TypeError):
        Polynomial.constant(field, vs, 2.0)
    with pytest.raises(TypeError):
        parse_polynomial("x + y", field, vs).scale(half)
    with pytest.raises(TypeError):
        parse_polynomial("x", field, vs) * make(
            field, vs, {Monomial.from_dict({"y": 1}): 3.0})


def test_constructors_refuse_elements_of_another_field():
    vs = ("x",)
    with pytest.raises(TypeError):
        Polynomial.constant(F5, vs, Fp(2, 3))
    with pytest.raises(TypeError):
        Polynomial.constant(F5, vs, Fraction(1, 2))
    with pytest.raises(TypeError):
        Polynomial.constant(QQ, vs, Fp(2, 5))
    K = FieldDescriptor.rational_functions(3, "t")
    with pytest.raises(TypeError):
        Polynomial.constant(K, vs, 2)
    F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
    F8 = FieldDescriptor.finite_extension(2, (1, 1, 0, 1))
    with pytest.raises(TypeError):
        Polynomial.constant(F4, vs, F8.generator())


def test_public_and_stored_elements_build_the_same_polynomial():
    vs = ("x", "y")
    F97 = FieldDescriptor.prime_field(97)
    x = Monomial.from_dict({"x": 1})
    assert make(QQ, vs, {x: Fraction(6, 3), Monomial(): Fraction(1, 2)}) \
        == Polynomial.from_vectors(QQ, vs, {(1, 0): 2, (0, 0): Fraction(1, 2)})
    assert make(F97, vs, {x: Fp(-1, 97)}) \
        == Polynomial.from_vectors(F97, vs, {(1, 0): 96}) \
        == Polynomial.from_vectors(F97, vs, {(1, 0): -1}) \
        == Polynomial.from_vectors(F97, vs, {(1, 0): 96 + 97 * 10**30})
    f = make(QQ, vs, {x: Fraction(1, 2)}) * make(
        QQ, vs, {Monomial.from_dict({"y": 1}): Fraction(2)})
    assert f.vectors == (((1, 1), 1),) and type(f.vectors[0][1]) is int
    assert terms(f)[0][1] == 1 and type(terms(f)[0][1]) is Fraction
    assert Polynomial.from_vectors(F97, vs, {(1, 0): 97}).is_zero


def test_lifting_to_a_residue_extension():
    F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
    f = parse_polynomial("x^2 + x*y + 1", F2, ("x", "y"))
    lifted = f.over(F4)
    assert lifted == parse_polynomial("x^2 + x*y + 1", F4, ("x", "y"))
    assert stored_form_problems(lifted) == []
    assert F4.embed(F2.one()) == F4.one()
    with pytest.raises(TypeError):
        F4.embed(F5.one())
    with pytest.raises(InputError):
        f.over(FieldDescriptor.finite_extension(3, (1, 0, 1)))
