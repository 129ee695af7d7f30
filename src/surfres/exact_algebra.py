"""Exact coefficient fields and multivariate polynomial arithmetic.

Supported coefficient fields: the rationals, prime fields F_p, finite
extensions F_p[s]/(m(s)), and rational function fields F_p(t) in one
transcendental.  Polynomials are immutable sparse maps from monomials to
nonzero coefficients, with a fixed ambient variable list per chart.

Everything here is pure and hashable; all arithmetic is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Iterable, Mapping

INF = float("inf")


class InputError(ValueError):
    """Malformed user input: bad syntax, unknown variables, invalid frames."""


class ScopeError(RuntimeError):
    """Structurally valid input outside the supported problem class."""


class UnsupportedOperationError(RuntimeError):
    """Operation undefined for the given field (e.g. p-th roots in char 0)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# univariate polynomials over F_p, represented as coefficient tuples
# (low degree first, no trailing zeros; the zero polynomial is the empty tuple)
# ---------------------------------------------------------------------------

def fp_trim(coeffs: Iterable[int], p: int) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fp_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return fp_trim(
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)), p
    )


def fp_neg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return fp_trim((-c for c in a), p)


def fp_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return fp_trim(out, p)


def fp_divmod(
    a: tuple[int, ...], b: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * cb) % p
        rem.pop()
    return fp_trim(quot, p), fp_trim(rem, p)


def fp_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return fp_monic(a, p)


def fp_monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return fp_trim((c * inv for c in a), p)


def fp_pow_mod(a: tuple[int, ...], e: int, mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = fp_divmod(a, mod, p)[1]
    while e > 0:
        if e & 1:
            result = fp_divmod(fp_mul(result, base, p), mod, p)[1]
        base = fp_divmod(fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def fp_format(a: tuple[int, ...], name: str) -> str:
    """Render a coefficient tuple as a readable polynomial in ``name``."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = name if i == 1 else f"{name}^{i}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# coefficient element types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fp:
    """Element of a prime field F_p, stored as the reduced residue."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    def __add__(self, other: "Fp") -> "Fp":
        return Fp(self.value + other.value, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        return Fp(self.value - other.value, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.value, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        return Fp(self.value * other.value, self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __pow__(self, e: int) -> "Fp":
        return Fp(pow(self.value, e, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Fq:
    """Element of F_p[s]/(m(s)): coefficients low-to-high modulo ``modulus``."""

    coeffs: tuple[int, ...]
    p: int
    modulus: tuple[int, ...]
    name: str = "s"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", fp_divmod(fp_trim(self.coeffs, self.p), self.modulus, self.p)[1]
        )

    def _make(self, coeffs: tuple[int, ...]) -> "Fq":
        return Fq(coeffs, self.p, self.modulus, self.name)

    def __add__(self, other: "Fq") -> "Fq":
        return self._make(fp_add(self.coeffs, other.coeffs, self.p))

    def __sub__(self, other: "Fq") -> "Fq":
        return self._make(fp_add(self.coeffs, fp_neg(other.coeffs, self.p), self.p))

    def __neg__(self) -> "Fq":
        return self._make(fp_neg(self.coeffs, self.p))

    def __mul__(self, other: "Fq") -> "Fq":
        return self._make(fp_mul(self.coeffs, other.coeffs, self.p))

    def __truediv__(self, other: "Fq") -> "Fq":
        if not other.coeffs:
            raise ZeroDivisionError("division by zero in the extension field")
        q = self.p ** (len(self.modulus) - 1)
        inverse = fp_pow_mod(other.coeffs, q - 2, self.modulus, self.p)
        return self._make(fp_mul(self.coeffs, inverse, self.p))

    def __pow__(self, e: int) -> "Fq":
        return self._make(fp_pow_mod(self.coeffs, e, self.modulus, self.p))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return f"({fp_format(self.coeffs, self.name)})"


@dataclass(frozen=True)
class RatFunc:
    """Element of F_p(t): a reduced fraction num/den with monic denominator."""

    num: tuple[int, ...]
    den: tuple[int, ...]
    p: int
    name: str = "t"

    def __post_init__(self) -> None:
        num = fp_trim(self.num, self.p)
        den = fp_trim(self.den, self.p)
        if not den:
            raise ZeroDivisionError("zero denominator in F_p(t)")
        if not num:
            den = (1,)
        else:
            g = fp_gcd(num, den, self.p)
            if len(g) > 1 or g != (1,):
                num = fp_divmod(num, g, self.p)[0]
                den = fp_divmod(den, g, self.p)[0]
            lead_inv = pow(den[-1], self.p - 2, self.p)
            if den[-1] != 1:
                num = fp_trim((c * lead_inv for c in num), self.p)
                den = fp_trim((c * lead_inv for c in den), self.p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _make(self, num: tuple[int, ...], den: tuple[int, ...]) -> "RatFunc":
        return RatFunc(num, den, self.p, self.name)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return self._make(
            fp_add(fp_mul(self.num, other.den, self.p), fp_mul(other.num, self.den, self.p), self.p),
            fp_mul(self.den, other.den, self.p),
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return self._make(fp_neg(self.num, self.p), self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return self._make(fp_mul(self.num, other.num, self.p), fp_mul(self.den, other.den, self.p))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other.num:
            raise ZeroDivisionError("division by zero in F_p(t)")
        return self._make(fp_mul(self.num, other.den, self.p), fp_mul(self.den, other.num, self.p))

    def __pow__(self, e: int) -> "RatFunc":
        out = self._make((1,), (1,))
        base = self
        while e > 0:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        if self.den == (1,):
            if len(self.num) <= 1 or sum(1 for c in self.num if c) == 1:
                return fp_format(self.num, self.name)
            return f"({fp_format(self.num, self.name)})"
        return f"({fp_format(self.num, self.name)})/({fp_format(self.den, self.name)})"


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
RATIONAL_FUNCTIONS = "rational_functions_over_prime_field"
FINITE_EXTENSION = "finite_field_extension"

_KINDS = (RATIONALS, PRIME_FIELD, RATIONAL_FUNCTIONS, FINITE_EXTENSION)


@dataclass(frozen=True)
class FieldDescriptor:
    """Which exact coefficient field a chart works over.

    ``modulus``/``generator_name`` are used only for ``finite_field_extension``
    (a residue-field extension F_p[s]/(m(s)) created by point location).
    """

    kind: str
    characteristic: int = 0
    transcendental_name: str | None = None
    modulus: tuple[int, ...] | None = None
    generator_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(f"unknown field kind: {self.kind!r}")
        if self.kind == RATIONALS:
            if self.characteristic != 0:
                raise InputError("the rationals have characteristic 0")
        else:
            if not _is_prime(self.characteristic):
                raise InputError(f"characteristic must be prime, got {self.characteristic}")
        if self.kind == RATIONAL_FUNCTIONS and not self.transcendental_name:
            raise InputError("rational function fields need a transcendental name")
        if self.kind != RATIONAL_FUNCTIONS and self.transcendental_name is not None:
            raise InputError("transcendental_name is only valid for rational function fields")
        if self.kind == FINITE_EXTENSION:
            if self.modulus is None or len(self.modulus) < 3 or self.modulus[-1] != 1:
                raise InputError("finite extensions need a monic modulus of degree >= 2")
            if not self.generator_name:
                raise InputError("finite extensions need a generator name")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldDescriptor":
        return FieldDescriptor(RATIONALS, 0)

    @staticmethod
    def prime_field(p: int) -> "FieldDescriptor":
        return FieldDescriptor(PRIME_FIELD, p)

    @staticmethod
    def rational_functions(p: int, name: str = "t") -> "FieldDescriptor":
        return FieldDescriptor(RATIONAL_FUNCTIONS, p, name)

    @staticmethod
    def finite_extension(p: int, modulus: tuple[int, ...], name: str = "s") -> "FieldDescriptor":
        return FieldDescriptor(FINITE_EXTENSION, p, None, fp_trim(modulus, p), name)

    # -- element constructors -----------------------------------------------

    def zero(self) -> Any:
        return self.from_int(0)

    def one(self) -> Any:
        return self.from_int(1)

    def from_int(self, n: int) -> Any:
        if self.kind == RATIONALS:
            return Fraction(n)
        if self.kind == PRIME_FIELD:
            return Fp(n, self.characteristic)
        if self.kind == FINITE_EXTENSION:
            assert self.modulus is not None and self.generator_name is not None
            return Fq((n,), self.characteristic, self.modulus, self.generator_name)
        return RatFunc((n,), (1,), self.characteristic, self.transcendental_name or "t")

    def transcendental(self) -> Any:
        if self.kind != RATIONAL_FUNCTIONS:
            raise InputError("this field has no transcendental element")
        return RatFunc((0, 1), (1,), self.characteristic, self.transcendental_name or "t")

    def generator(self) -> Any:
        if self.kind != FINITE_EXTENSION:
            raise InputError("this field has no extension generator")
        assert self.modulus is not None and self.generator_name is not None
        return Fq((0, 1), self.characteristic, self.modulus, self.generator_name)

    @property
    def is_perfect(self) -> bool:
        """Whether the Frobenius map is surjective (vacuously true in char 0)."""
        return self.kind != RATIONAL_FUNCTIONS


def p_th_root(c: Any, field: FieldDescriptor) -> Any | None:
    """The unique d with d^p = c, or None when c is not a p-th power.

    Total over perfect fields of characteristic p; partial over F_p(t);
    undefined (error) in characteristic 0.
    """
    p = field.characteristic
    if p == 0:
        raise UnsupportedOperationError("p-th roots are undefined in characteristic 0")
    if field.kind == PRIME_FIELD:
        return c  # Frobenius is the identity on F_p
    if field.kind == FINITE_EXTENSION:
        assert field.modulus is not None
        d = len(field.modulus) - 1
        return c ** (p ** (d - 1))
    # F_p(t): a reduced fraction is a p-th power iff numerator and denominator
    # separately have all exponents divisible by p.
    assert isinstance(c, RatFunc)
    if not c.num:
        return c

    def _root(coeffs: tuple[int, ...]) -> tuple[int, ...] | None:
        if (len(coeffs) - 1) % p != 0:
            return None
        out = [0] * ((len(coeffs) - 1) // p + 1)
        for i, a in enumerate(coeffs):
            if i % p == 0:
                out[i // p] = a
            elif a != 0:
                return None
        return tuple(out)

    rn = _root(c.num)
    rd = _root(c.den)
    if rn is None or rd is None:
        return None
    return RatFunc(rn, rd, p, c.name)


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """A power product, stored as a sorted tuple of (variable, exponent > 0)."""

    exps: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[str, int]) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in d.items() if e != 0))
        for _, e in items:
            if e < 0:
                raise InputError("negative exponent in monomial")
        return Monomial(items)

    def as_dict(self) -> dict[str, int]:
        return dict(self.exps)

    def exponent(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def degree(self, vars: Iterable[str] | None = None) -> int:
        if vars is None:
            return sum(e for _, e in self.exps)
        vs = set(vars)
        return sum(e for v, e in self.exps if v in vs)

    def mul(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial.from_dict(d)

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(v) >= e for v, e in self.exps)

    @property
    def is_unit(self) -> bool:
        return not self.exps


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _term_sort_key(variables: tuple[str, ...], m: Monomial) -> tuple:
    exps = dict(m.exps)
    vec = tuple([-exps.get(v, 0) for v in variables])
    return (-sum(vec), vec)


def _mul_into(acc: dict, a: Iterable[tuple[tuple, Any]],
              b: list[tuple[tuple, Any]]) -> None:
    """Add the product of the term lists ``a`` and ``b`` into ``acc``.

    Term lists and ``acc`` are keyed by a monomial's sorted ``exps`` tuple,
    so no ``Monomial`` is built until the caller canonicalises the result.
    """
    for m1, c1 in a:
        d1 = dict(m1)
        for m2, c2 in b:
            if not m2:
                m = m1
            elif not m1:
                m = m2
            else:
                d = d1.copy()
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                m = tuple(sorted(d.items()))
            c = c1 * c2
            s = acc.get(m)
            acc[m] = c if s is None else s + c


def _power(base: "Polynomial", e: int, multiply) -> "Polynomial":
    """base**e by repeated squaring, forming every product with ``multiply``."""
    result = Polynomial.constant(base.field, base.variables, base.field.one())
    while e:
        if e & 1:
            result = multiply(result, base)
        e >>= 1
        if e:
            base = multiply(base, base)
    return result


def _from_term_map(field: FieldDescriptor, variables: tuple[str, ...],
                   acc: Mapping[tuple, Any]) -> "Polynomial":
    return Polynomial.make(field, variables, {Monomial(m): c for m, c in acc.items()})


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial over an exact field.

    ``terms`` is canonically ordered (ascending total degree, then by the
    exponent vector), which makes equality, hashing, and printing stable.
    """

    field: FieldDescriptor
    variables: tuple[str, ...]
    terms: tuple[tuple[Monomial, Any], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def make(
        field: FieldDescriptor, variables: Iterable[str], term_map: Mapping[Monomial, Any]
    ) -> "Polynomial":
        vs = tuple(variables)
        seen = set(vs)
        if len(seen) != len(vs):
            raise InputError("duplicate ambient variable names")
        clean: list[tuple[Monomial, Any]] = []
        for m, c in term_map.items():
            if not c:
                continue
            for v, _ in m.exps:
                if v not in seen:
                    raise InputError(f"monomial uses unknown variable {v!r}")
            clean.append((m, c))
        clean.sort(key=lambda mc: _term_sort_key(vs, mc[0]))
        return Polynomial(field, vs, tuple(clean))

    @staticmethod
    def zero(field: FieldDescriptor, variables: Iterable[str]) -> "Polynomial":
        return Polynomial.make(field, variables, {})

    @staticmethod
    def constant(field: FieldDescriptor, variables: Iterable[str], c: Any) -> "Polynomial":
        return Polynomial.make(field, variables, {Monomial(): c})

    @staticmethod
    def variable(field: FieldDescriptor, variables: Iterable[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise InputError(f"unknown variable {name!r}")
        return Polynomial.make(field, vs, {Monomial.from_dict({name: 1}): field.one()})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term_map(self) -> dict[Monomial, Any]:
        return dict(self.terms)

    def coefficient(self, m: Monomial) -> Any:
        for mm, c in self.terms:
            if mm == m:
                return c
        return self.field.zero()

    def constant_coefficient(self) -> Any:
        return self.coefficient(Monomial())

    def total_degree(self) -> int | float:
        if self.is_zero:
            return -INF
        return max(m.degree() for m, _ in self.terms)

    def is_constant(self) -> bool:
        return all(m.is_unit for m, _ in self.terms)

    def support_variables(self) -> set[str]:
        out: set[str] = set()
        for m, _ in self.terms:
            out.update(v for v, _ in m.exps)
        return out

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.variables != other.variables:
            raise InputError("polynomials over different rings cannot be combined")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc = self.term_map()
        for m, c in other.terms:
            s = acc.get(m)
            acc[m] = c if s is None else s + c
        return Polynomial.make(self.field, self.variables, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial.make(self.field, self.variables, {m: -c for m, c in self.terms})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc: dict[tuple, Any] = {}
        _mul_into(acc, [(m.exps, c) for m, c in self.terms],
                  [(m.exps, c) for m, c in other.terms])
        return _from_term_map(self.field, self.variables, acc)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InputError("negative polynomial power")
        return _power(self, e, Polynomial.__mul__)

    def scale(self, c: Any) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.field, self.variables)
        return Polynomial.make(self.field, self.variables, {m: cc * c for m, cc in self.terms})

    def monomial_multiple(self, m: Monomial, c: Any | None = None) -> "Polynomial":
        coeff = self.field.one() if c is None else c
        return Polynomial.make(
            self.field, self.variables, {mm.mul(m): cc * coeff for mm, cc in self.terms}
        )

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return to_string(self)


def _format_coefficient(field: FieldDescriptor, c: Any) -> tuple[str, str]:
    """Split a coefficient into (sign, magnitude-string); sign is '+' or '-'."""
    if field.kind == RATIONALS:
        if c < 0:
            return "-", str(-c)
        return "+", str(c)
    return "+", str(c)


def to_string(f: Polynomial) -> str:
    """Canonical, re-parseable rendering of a polynomial."""
    if f.is_zero:
        return "0"
    pieces: list[str] = []
    one = f.field.one()
    for m, c in f.terms:
        sign, mag = _format_coefficient(f.field, c)
        mono_parts = []
        for v in f.variables:
            e = m.exponent(v)
            if e == 1:
                mono_parts.append(v)
            elif e > 1:
                mono_parts.append(f"{v}^{e}")
        mono = "*".join(mono_parts)
        if not mono:
            body = mag
        elif (c == one and sign == "+") or (mag == "1"):
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def ord_at(f: Polynomial, prime_vars: Iterable[str]) -> int | float:
    """Order of f along the coordinate prime ideal generated by prime_vars.

    The minimum over terms of the total exponent in the given variables;
    infinity for the zero polynomial.
    """
    vs = tuple(prime_vars)
    for v in vs:
        if v not in f.variables:
            raise InputError(f"unknown variable {v!r} in ord_at")
    if f.is_zero:
        return INF
    vset = set(vs)
    return min(m.degree(vset) for m, _ in f.terms)


def hasse_derivative(f: Polynomial, a: Mapping[str, int]) -> Polynomial:
    """The Hasse-Schmidt derivative D_A f: the coefficient of Z^A in f(X+Z).

    Binomial coefficients are reduced in the field's characteristic, so this
    is the right notion in positive characteristic as well.
    """
    for v in a:
        if v not in f.variables:
            raise InputError(f"unknown variable {v!r} in hasse_derivative")
    order = {v: e for v, e in a.items() if e}
    acc: dict[Monomial, Any] = {}
    for m, c in f.terms:
        factor = 1
        new_exps = m.as_dict()
        ok = True
        for v, e in order.items():
            have = new_exps.get(v, 0)
            if have < e:
                ok = False
                break
            factor *= comb(have, e)
            new_exps[v] = have - e
        if not ok:
            continue
        coeff = c * f.field.from_int(factor)
        if not coeff:
            continue
        mm = Monomial.from_dict(new_exps)
        s = acc.get(mm)
        acc[mm] = coeff if s is None else s + coeff
    return Polynomial.make(f.field, f.variables, acc)


def _evaluate(f: Polynomial, assignments: Mapping[str, Polynomial]) -> Polynomial:
    """f with every assigned variable replaced by its expression at once.

    The terms of f are grouped by the exponents of the assigned variables.
    Each group's remaining part is multiplied by the cached powers of the
    expressions, and every product is added into one term map, which is
    canonicalised once at the end.  Since f is read only once, the
    replacements are simultaneous.
    """
    index = {v: i for i, v in enumerate(assignments)}
    groups: dict[tuple[int, ...], list[tuple[tuple, Any]]] = {}
    for m, c in f.terms:
        key = [0] * len(index)
        rest = []
        for v, e in m.exps:
            i = index.get(v)
            if i is None:
                rest.append((v, e))
            else:
                key[i] = e
        groups.setdefault(tuple(key), []).append((tuple(rest), c))

    unit = [((), f.field.one())]
    powers = [[unit, [(m.exps, c) for m, c in expr.terms]]
              for expr in assignments.values()]

    def power(i: int, e: int) -> list[tuple[tuple, Any]]:
        cached = powers[i]
        while len(cached) <= e:
            acc: dict[tuple, Any] = {}
            _mul_into(acc, cached[-1], cached[1])
            cached.append([(m, c) for m, c in acc.items() if c])
        return cached[e]

    result: dict[tuple, Any] = {}
    for key, part in groups.items():
        factors = [power(i, e) for i, e in enumerate(key) if e]
        for factor in factors[:-1]:
            acc = {}
            _mul_into(acc, part, factor)
            part = [(m, c) for m, c in acc.items() if c]
        _mul_into(result, part, factors[-1] if factors else unit)
    return _from_term_map(f.field, f.variables, result)


def substitute(f: Polynomial, var: str, expr: Polynomial) -> Polynomial:
    """Replace ``var`` by ``expr`` in f, fully expanded and canonicalized."""
    if var not in f.variables:
        raise InputError(f"unknown variable {var!r} in substitute")
    f._check_compatible(expr)
    return _evaluate(f, {var: expr})


def substitute_many(f: Polynomial, assignments: Mapping[str, Polynomial]) -> Polynomial:
    """Simultaneous substitution (applied against the original variables)."""
    if not assignments:
        return f
    for var, expr in assignments.items():
        if var not in f.variables:
            raise InputError(f"unknown variable {var!r} in substitute")
        f._check_compatible(expr)
    return _evaluate(f, assignments)


def divide_exactly(f: Polynomial, var: str, power: int) -> Polynomial:
    """Divide f by var**power, requiring exact divisibility."""
    acc: dict[Monomial, Any] = {}
    for m, c in f.terms:
        e = m.exponent(var)
        if e < power:
            raise InputError(f"{var}^{power} does not divide every term")
        d = m.as_dict()
        d[var] = e - power
        acc[Monomial.from_dict(d)] = c
    return Polynomial.make(f.field, f.variables, acc)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Largest product of two operands' term counts that the parser multiplies out
# (beyond it, ScopeError).  No job of the test suite or the benchmark needs
# more than 6; at 10**5 the refusal comes within a fraction of a second.
MAX_PARSE_PRODUCT = 10**5

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|\-|/|\(|\)))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"unexpected character in polynomial: {rest[0]!r}")
        if m.group(1) is not None:
            tokens.append(("int", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial text grammar.

    Grammar (whitespace insignificant)::

        expr   :=  ['-'] term { ('+'|'-') term }
        term   :=  power { ('*'|'/') power }
        power  :=  atom [ '^' INT ]
        atom   :=  INT | NAME | '(' expr ')'

    Division is only allowed by constants (coefficients).  NAME resolves to an
    ambient variable, or to the field's transcendental / extension generator.
    """

    def __init__(self, tokens: list[tuple[str, str]], field: FieldDescriptor,
                 variables: tuple[str, ...]):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.variables = variables

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of polynomial text")
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise InputError(f"expected {op!r} in polynomial text")

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.peek() is not None:
            raise InputError(f"trailing tokens in polynomial text: {self.peek()!r}")
        return result

    def expr(self) -> Polynomial:
        negate = False
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            negate = True
        elif tok == ("op", "+"):
            self.take()
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                result = result + self.term()
            elif tok == ("op", "-"):
                self.take()
                result = result - self.term()
            else:
                return result

    def term(self) -> Polynomial:
        result = self.power()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                result = self.multiply(result, self.power())
            elif tok == ("op", "/"):
                self.take()
                divisor = self.power()
                if not divisor.is_constant() or divisor.is_zero:
                    raise InputError("division is only allowed by nonzero coefficients")
                result = result.scale(self.field.one() / divisor.constant_coefficient())
            else:
                return result

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise InputError("exponent must be a nonnegative integer")
            return _power(base, int(text), self.multiply)
        return base

    def multiply(self, a: Polynomial, b: Polynomial) -> Polynomial:
        if len(a.terms) * len(b.terms) > MAX_PARSE_PRODUCT:
            raise ScopeError(
                f"expanding the polynomial text needs a product of "
                f"{len(a.terms)} by {len(b.terms)} terms, over the limit of "
                f"{MAX_PARSE_PRODUCT} term products (MAX_PARSE_PRODUCT)")
        return a * b

    def atom(self) -> Polynomial:
        kind, text = self.take()
        if kind == "int":
            return Polynomial.constant(self.field, self.variables, self.field.from_int(int(text)))
        if kind == "name":
            if text in self.variables:
                return Polynomial.variable(self.field, self.variables, text)
            if (self.field.kind == RATIONAL_FUNCTIONS
                    and text == self.field.transcendental_name):
                return Polynomial.constant(self.field, self.variables, self.field.transcendental())
            if (self.field.kind == FINITE_EXTENSION
                    and text == self.field.generator_name):
                return Polynomial.constant(self.field, self.variables, self.field.generator())
            raise InputError(f"unknown variable {text!r}")
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise InputError(f"unexpected token {text!r} in polynomial text")


def parse_polynomial(text: str, field: FieldDescriptor, variables: Iterable[str]) -> Polynomial:
    """Parse polynomial text over the given field and ambient variable list."""
    vs = tuple(variables)
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial text")
    return _Parser(tokens, field, vs).parse()
