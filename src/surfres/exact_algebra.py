"""Exact coefficient fields and multivariate polynomial arithmetic.

Supported coefficient fields: the rationals, prime fields F_p, finite
extensions F_p[s]/(m(s)), and rational function fields F_p(t) in one
transcendental.  A polynomial has a fixed ambient variable list per chart
and stores each term once, as an exponent vector aligned with that list and
a nonzero coefficient, in one canonical order; every operation works on the
vectors and ends in one canonicalising constructor, ``_canonical``, except
the maps whose terms come out in that order, which build the ``Polynomial``
directly: a subset of one polynomial's terms (``restrict_to_zero``,
``initial_form``, ``_pure_y_part``, ``_vertex_initial``, ``_Box.reduce``),
``hasse_derivative`` and ``hasse_derivatives`` (m -> m - A on the terms
with m >= A is injective and keeps the order) and ``Polynomial.variable``
(one term).
``substitute`` and ``substitute_many`` replace variables by polynomials;
the monomial maps of the resolution have their own kernels on the exponent
vectors: ``translate`` for a move x <- x + c * monomial (by the binomial
theorem), ``strict_transform`` for a blow-up's strict transform (the total
transform v <- v * w divided by its power of w), and ``restrict_to_zero`` for
the restriction to a coordinate subspace.

Stored coefficients are field-native, so the kernel loops do plain integer
arithmetic: over Q an integral coefficient is an ``int`` and only one with a
denominator is a ``Fraction``; over F_p a coefficient is its residue, an
``int`` in [0, p); over F_p[s]/(m) and F_p(t) it is the ``Fq``/``RatFunc``
element itself.  Inside a loop F_p sums may run unreduced; they are reduced
mod p wherever zero terms are dropped.  The public elements are ``Fraction``
over Q and ``Fp`` over F_p.  The conversions live in ``FieldDescriptor``:
``to_native`` (used by the one canonicalising constructor, which accepts
public and native elements alike and refuses any other type, such as the
float of an ``int / int``), ``to_public`` (used by ``coefficient_map``
and ``constant_coefficient``, the ways coefficients leave a polynomial),
``native_int`` and ``native_power``, and ``native_inverse``, the stored
form of 1/c, on which ``local_frame`` runs its exact linear algebra.

Univariate polynomials over F_p, the numerators and denominators of F_p(t)
and the elements and moduli of F_p[s]/(m), are coefficient tuples known only
to this module: it alone does their arithmetic, Frobenius splitting in
F_p(t), q-th roots, the irreducibility test behind residue extensions, and
the normal form of vectors over F_p(t).

Everything here is pure and hashable; all arithmetic is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import add, sub
from typing import Any, Callable, Iterable, Mapping, Sequence

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


def _power(base: Any, e: int, one: Any, multiply: Callable[[Any, Any], Any]) -> Any:
    """base**e by repeated squaring from ``one``, forming every product with
    ``multiply``; ``one`` when e <= 0."""
    result = one
    while e > 0:
        if e & 1:
            result = multiply(result, base)
        e >>= 1
        if e:
            base = multiply(base, base)
    return result


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
    return _power(fp_divmod(a, mod, p)[1], e, (1,),
                  lambda x, y: fp_divmod(fp_mul(x, y, p), mod, p)[1])


def fp_is_irreducible(a: tuple[int, ...], p: int) -> bool:
    """Whether a is irreducible over F_p, by Ben-Or's test (M. Ben-Or,
    "Probabilistic algorithms in finite fields", 1981): f of degree d is
    irreducible iff gcd(x^(p^i) - x mod f, f) = 1 for 1 <= i <= d/2."""
    f = fp_trim(a, p)
    if len(f) < 2:
        return False
    x = (0, 1)
    power = x
    for _ in range((len(f) - 1) // 2):
        power = fp_pow_mod(power, p, f, p)
        if fp_gcd(fp_add(power, fp_neg(x, p), p), f, p) != (1,):
            return False
    return True


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
        return _power(self, e, self._make((1,), (1,)), RatFunc.__mul__)

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def degree(self) -> int:
        """The larger of the degrees of the numerator and the denominator
        (0 for zero)."""
        return max(len(self.num), len(self.den)) - 1

    def __str__(self) -> str:
        if self.den == (1,):
            if len(self.num) <= 1 or sum(1 for c in self.num if c) == 1:
                return fp_format(self.num, self.name)
            return f"({fp_format(self.num, self.name)})"
        return f"({fp_format(self.num, self.name)})/({fp_format(self.den, self.name)})"


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

# Largest characteristic of a field, and largest number of elements of a
# finite field searched whole (beyond them, ScopeError).  Vertex solvability
# and root finding over finite fields search the whole field, and the
# primality check is trial division.
MAX_CHARACTERISTIC = 100
# Largest degree of the condition defining a residue-field extension (beyond
# it, ScopeError).  The irreducibility test costs about d^3 log p steps: a
# degree-200 condition over F_97 took 3 s, one of degree 32 takes well under
# a tenth of a second.  Fields of more than MAX_CHARACTERISTIC elements are
# still refused wherever they would be searched whole.
MAX_RESIDUE_DEGREE = 32

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
        elif self.characteristic > MAX_CHARACTERISTIC:
            raise ScopeError(
                f"characteristic {self.characteristic} is over the limit of "
                f"{MAX_CHARACTERISTIC} (MAX_CHARACTERISTIC)")
        elif not _is_prime(self.characteristic):
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

    def elements(self) -> list[Any]:
        """Every element of a finite field: F_p as 0, ..., p-1, and F_p[s]/(m)
        by coefficient tuples in ``itertools.product`` order.  A field of more
        than ``MAX_CHARACTERISTIC`` elements is a ``ScopeError``."""
        p = self.characteristic
        if self.kind == PRIME_FIELD:
            return [self.from_int(i) for i in range(p)]
        if self.kind == FINITE_EXTENSION:
            assert self.modulus is not None and self.generator_name is not None
            d = len(self.modulus) - 1
            if p ** d > MAX_CHARACTERISTIC:
                raise ScopeError(
                    f"searching the field of {p}^{d} elements is over the limit "
                    f"of {MAX_CHARACTERISTIC} elements (MAX_CHARACTERISTIC)")
            return [Fq(combo, p, self.modulus, self.generator_name)
                    for combo in product(range(p), repeat=d)]
        raise InputError(f"the field {self.kind} is not finite")

    @property
    def is_perfect(self) -> bool:
        """Whether the Frobenius map is surjective (vacuously true in char 0)."""
        return self.kind != RATIONAL_FUNCTIONS

    def embed(self, c: Fp) -> Any:
        """The image in this field of an element of its prime field."""
        if not isinstance(c, Fp) or c.p != self.characteristic:
            raise TypeError(f"{c!r} is not an element of F_{self.characteristic}")
        return self.from_int(c.value)

    # -- native coefficients (see the module docstring) ----------------------

    def to_native(self, c: Any) -> Any:
        """The stored form of a public or native element of this field; a
        TypeError for anything else."""
        kind = self.kind
        if kind == RATIONALS:
            if type(c) is int:
                return c
            if isinstance(c, Fraction):
                return c.numerator if c.denominator == 1 else c
        elif kind == PRIME_FIELD:
            if type(c) is int:
                return c % self.characteristic
            if isinstance(c, Fp) and c.p == self.characteristic:
                return c.value
        elif kind == FINITE_EXTENSION:
            if (isinstance(c, Fq) and c.p == self.characteristic
                    and c.modulus == self.modulus):
                return c
        elif isinstance(c, RatFunc) and c.p == self.characteristic:
            return c
        raise TypeError(f"{c!r} is not an element of the field {self.kind}")

    def to_public(self, c: Any) -> Any:
        """The public element (``Fraction``, ``Fp``, ``Fq`` or ``RatFunc``)
        of a stored coefficient."""
        if self.kind == RATIONALS:
            return c if type(c) is Fraction else Fraction(c)
        if self.kind == PRIME_FIELD:
            return Fp(c, self.characteristic)
        return c

    def native_int(self, n: int) -> Any:
        """The stored form of the integer n."""
        return n if self.kind in (RATIONALS, PRIME_FIELD) else self.from_int(n)

    def native_inverse(self, c: Any) -> Any:
        """1/c for a nonzero stored coefficient c, in stored form: over Q
        ``Fraction(1, c)``, an ``int`` when integral; over F_p
        ``pow(c, -1, p)``; over F_q and F_p(t) the element's own inverse."""
        if self.kind == RATIONALS:
            if c == 1 or c == -1:  # an integral stored c is an int
                return c
            inverse = Fraction(1, c)
            return inverse.numerator if inverse.denominator == 1 else inverse
        if self.kind == PRIME_FIELD:
            return pow(c, -1, self.characteristic)
        return self.one() / c

    def native_power(self, c: Any, e: int) -> Any:
        """c**e for a stored coefficient c and e >= 0."""
        if self.kind == PRIME_FIELD:
            return pow(c, e, self.characteristic)
        return c ** e


def frobenius_split(c: RatFunc, q: int) -> list[RatFunc]:
    """Write c in F_p(t) as sum_j t^j * a_j^q for q a power of p; returns
    [a_0, ..., a_{q-1}].

    Uses c = (num * den^(q-1)) / den^q and the fact that F_p coefficients are
    Frobenius-fixed, so grouping numerator exponents modulo q gives exact
    q-th roots slice by slice.
    """
    p = c.p
    num = fp_mul(c.num, _power(c.den, q - 1, (1,), lambda a, b: fp_mul(a, b, p)), p)
    return [RatFunc(num[j::q], c.den, p, c.name) for j in range(q)]


def q_th_root(c: Any, q: int, field: FieldDescriptor) -> Any | None:
    """The unique d with d^q = c for q a power of the characteristic (or
    q = 1), or None when c is not a q-th power.

    Total over perfect fields of characteristic p; partial over F_p(t);
    undefined (error) in characteristic 0 unless q = 1.
    """
    if q == 1:
        return c
    p = field.characteristic
    if p == 0:
        raise UnsupportedOperationError("p-th roots are undefined in characteristic 0")
    if field.kind == PRIME_FIELD:
        return c  # Frobenius is the identity on F_p
    if field.kind == FINITE_EXTENSION:
        assert field.modulus is not None
        # Frobenius has order d on F_{p^d}, so x -> x^(q^(d-1)) inverts
        # x -> x^q; modulo the order p^d - 1 of the unit group that exponent
        # is p^((-a) mod d) for q = p^a.
        d = len(field.modulus) - 1
        return c ** pow(q, d - 1, p ** d - 1)
    head, *rest = frobenius_split(c, q)
    return None if any(rest) else head


def p_th_root(c: Any, field: FieldDescriptor) -> Any | None:
    """The unique d with d^p = c, or None when c is not a p-th power.

    Total over perfect fields of characteristic p; partial over F_p(t);
    undefined (error) in characteristic 0.
    """
    return q_th_root(c, field.characteristic, field)


def primitive_vector(vec: Sequence[RatFunc]) -> list[RatFunc]:
    """The multiple of a nonzero vector over F_p(t) whose entries are
    polynomials with no common factor and whose first nonzero entry is monic
    in t; every nonzero multiple of ``vec`` gives the same vector."""
    lead = next(i for i, c in enumerate(vec) if c)
    p, name = vec[lead].p, vec[lead].name
    den: tuple[int, ...] = (1,)
    for c in vec:
        den = fp_mul(den, c.den, p)
    scaled = [c * RatFunc(den, (1,), p, name) for c in vec]
    common: tuple[int, ...] = ()
    for c in scaled:
        common = fp_gcd(common, c.num, p)
    # common is monic, so the first entry divided by it keeps its leading
    # coefficient
    unit = RatFunc(fp_mul(common, (scaled[lead].num[-1],), p), (1,), p, name)
    return [c / unit for c in scaled]


def residue_extension(cond: Polynomial, var: str) -> tuple[FieldDescriptor, Any]:
    """The residue field of the closed point where the univariate condition
    ``cond`` in ``var`` holds, and the coordinate of ``var`` there.

    ``cond`` must be irreducible over a prime field F_p.  A linear condition
    gives F_p and its root; one of degree d >= 2 gives F_p[s]/(m), with m the
    condition made monic, and the generator s.
    """
    field = cond.field
    if field.kind != PRIME_FIELD:
        raise ScopeError(
            "residue-field extensions are only supported over prime fields")
    if cond.support_variables() - {var}:
        raise InputError(
            f"the condition for {var!r} must be univariate in {var!r}")
    if cond.is_zero:
        raise InputError(f"the condition for {var!r} is zero")
    p = field.characteristic
    degree = int(cond.total_degree())
    if degree > MAX_RESIDUE_DEGREE:
        raise ScopeError(
            f"the condition for {var!r} has degree {degree}, over the limit "
            f"of {MAX_RESIDUE_DEGREE} (MAX_RESIDUE_DEGREE)")
    # every term is a power of var, so its total degree is its exponent
    coeffs = [0] * (degree + 1)
    for vec, c in cond.vectors:
        coeffs[sum(vec)] = c
    modulus = fp_monic(fp_trim(coeffs, p), p)
    if not fp_is_irreducible(modulus, p):
        raise InputError(
            f"the condition for {var!r} is not irreducible over F_{p}")
    if len(modulus) == 2:
        return field, field.from_int(-modulus[0])
    extension = FieldDescriptor.finite_extension(p, modulus, name="s")
    return extension, extension.generator()


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _layout(variables: tuple[str, ...]) -> tuple[dict[str, int], list[int]]:
    """Each variable's position, and the positions in name order."""
    return ({v: i for i, v in enumerate(variables)},
            sorted(range(len(variables)), key=variables.__getitem__))


def name_order(variables: tuple[str, ...]) -> list[int]:
    """The positions of the variables sorted by name: the order in which
    the stratum search ranks supports of one size and pushes its branches."""
    return _layout(variables)[1]


def _mul_into(acc: dict, a: Iterable[tuple[tuple, Any]],
              b: Sequence[tuple[tuple, Any]]) -> None:
    """Add the product of the term lists ``a`` and ``b`` into ``acc``.

    Term lists and ``acc`` are keyed by exponent vectors aligned with one
    variable tuple, so a product of two monomials is one tuple addition.
    """
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            c = c1 * c2
            s = acc.get(m)
            acc[m] = c if s is None else s + c


def _vector_order(term: tuple[tuple[int, ...], Any]) -> tuple:
    """Sort key of a term keyed by its exponent vector: descending in this
    key is the canonical order (ascending total degree, then descending
    exponent vector)."""
    return (-sum(term[0]), term[0])


def _native_terms(field: FieldDescriptor,
                  terms: Iterable[tuple[tuple, Any]]) -> list[tuple[tuple, Any]]:
    """The terms with nonzero coefficient, each coefficient in the field's
    stored form (``FieldDescriptor.to_native``): F_p sums reduced mod p and
    integral fractions made ints.  Plain ints skip the conversion call."""
    native = field.to_native
    if field.kind == RATIONALS:
        return [(m, n) for m, c in terms if (n := c if type(c) is int else native(c))]
    if field.kind == PRIME_FIELD:
        p = field.characteristic
        return [(m, n) for m, c in terms
                if (n := c % p if type(c) is int else native(c))]
    return [(m, c) for m, c in terms if native(c)]


def _canonical(field: FieldDescriptor, variables: tuple[str, ...],
               terms: Iterable[tuple[tuple[int, ...], Any]]) -> "Polynomial":
    """The polynomial of (exponent vector, coefficient) terms with distinct
    vectors aligned with ``variables``: coefficients public or native, put
    in stored form, zeros dropped and the rest sorted into the canonical
    order.  Every polynomial is built here except by the order-keeping maps:
    a subset of one polynomial's terms (``restrict_to_zero``,
    ``initial_form``, ``_pure_y_part``, ``_vertex_initial``, ``_Box.reduce``),
    the injective shift m -> m - A of ``hasse_derivative`` and
    ``hasse_derivatives``, and the one term of ``Polynomial.variable``."""
    kept = _native_terms(field, terms)
    kept.sort(key=_vector_order, reverse=True)
    return Polynomial(field, variables, tuple(kept))


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial over an exact field.

    ``vectors`` holds each term once, as an exponent vector aligned with
    ``variables`` and a nonzero coefficient in the field's stored form (an
    ``int`` for integral rationals and F_p residues, see the module
    docstring), in canonical order (ascending total degree, then descending
    exponent vector), which makes equality, hashing, and printing stable.
    ``coefficient_map`` hands the terms out with public coefficients
    (``Fraction``, ``Fp``, ...), and every constructor accepts public and
    stored elements alike.
    """

    field: FieldDescriptor
    variables: tuple[str, ...]
    vectors: tuple[tuple[tuple[int, ...], Any], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vectors(
        field: FieldDescriptor, variables: Iterable[str],
        term_map: Mapping[tuple[int, ...], Any],
    ) -> "Polynomial":
        """The polynomial of a map from exponent vectors aligned with
        ``variables`` to coefficients."""
        return _canonical(field, tuple(variables), term_map.items())

    @staticmethod
    def constant(field: FieldDescriptor, variables: Iterable[str], c: Any) -> "Polynomial":
        vs = tuple(variables)
        if len(_layout(vs)[0]) != len(vs):
            raise InputError("duplicate ambient variable names")
        return _canonical(field, vs, [((0,) * len(vs), c)] if c else [])

    @staticmethod
    def variable(field: FieldDescriptor, variables: Iterable[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        index = _layout(vs)[0]
        if name not in index:
            raise InputError(f"unknown variable {name!r}")
        if len(index) != len(vs):
            raise InputError("duplicate ambient variable names")
        vec = [0] * len(vs)
        vec[index[name]] = 1
        return Polynomial(field, vs, ((tuple(vec), field.native_int(1)),))

    # -- basic queries -------------------------------------------------------

    def coefficient_map(self) -> dict[tuple[int, ...], Any]:
        """Each exponent vector's coefficient, as a public element."""
        public = self.field.to_public
        return {vec: public(c) for vec, c in self.vectors}

    def over(self, field: FieldDescriptor) -> "Polynomial":
        """The same polynomial over ``field``, an extension of this
        polynomial's prime field F_p."""
        if self.field.kind != PRIME_FIELD or field.characteristic != self.field.characteristic:
            raise InputError(f"{field.kind} does not extend {self.field.kind}")
        return _canonical(field, self.variables,
                          [(vec, field.from_int(c)) for vec, c in self.vectors])

    def positions(self, names: Iterable[str]) -> list[int]:
        """The position of each named variable in ``variables``, and so in
        every exponent vector."""
        index = _layout(self.variables)[0]
        return [index[v] for v in names]

    @property
    def is_zero(self) -> bool:
        return not self.vectors

    def constant_coefficient(self) -> Any:
        # the canonical order starts at the lowest degree: a constant term
        # comes first
        if self.vectors and not any(self.vectors[0][0]):
            return self.field.to_public(self.vectors[0][1])
        return self.field.zero()

    def total_degree(self) -> int | float:
        if self.is_zero:
            return -INF
        return sum(self.vectors[-1][0])  # the canonical order ends at the top degree

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def support_variables(self) -> set[str]:
        return {self.variables[i]
                for vec, _ in self.vectors for i, e in enumerate(vec) if e}

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.variables != other.variables:
            raise InputError("polynomials over different rings cannot be combined")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc = dict(self.vectors)
        for m, c in other.vectors:
            s = acc.get(m)
            acc[m] = c if s is None else s + c
        return _canonical(self.field, self.variables, acc.items())

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _canonical(self.field, self.variables, [(m, -c) for m, c in self.vectors])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc: dict[tuple, Any] = {}
        _mul_into(acc, self.vectors, other.vectors)
        return _canonical(self.field, self.variables, acc.items())

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InputError("negative polynomial power")
        one = Polynomial.constant(self.field, self.variables, self.field.one())
        return _power(self, e, one, Polynomial.__mul__)

    def scale(self, c: Any) -> "Polynomial":
        c = self.field.to_native(c)
        return _canonical(self.field, self.variables,
                          [(m, cc * c) for m, cc in self.vectors])

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return to_string(self)


def coefficient_text(c: Any) -> str:
    """``str(c)``, with a coefficient too long for the interpreter's
    integer-to-text limit reported as ``ScopeError``."""
    try:
        return str(c)
    except ValueError as err:
        raise ScopeError(f"a coefficient is too large to print: {err}") from None


def _format_coefficient(field: FieldDescriptor, c: Any) -> tuple[str, str]:
    """Split a coefficient into (sign, magnitude-string); sign is '+' or '-'."""
    if field.kind == RATIONALS and c < 0:
        return "-", coefficient_text(-c)
    return "+", coefficient_text(c)


def to_string(f: Polynomial) -> str:
    """Canonical, re-parseable rendering of a polynomial."""
    if f.is_zero:
        return "0"
    pieces: list[str] = []
    one = f.field.native_int(1)
    for vec, c in f.vectors:
        sign, mag = _format_coefficient(f.field, c)
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(f.variables, vec) if e)
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
    index = _layout(f.variables)[0]
    pos = set()
    for v in prime_vars:
        i = index.get(v)
        if i is None:
            raise InputError(f"unknown variable {v!r} in ord_at")
        pos.add(i)
    if f.is_zero:
        return INF
    if len(pos) == len(f.variables):
        # the canonical order starts at the lowest total degree
        return sum(f.vectors[0][0])
    return min(sum(vec[i] for i in pos) for vec, _ in f.vectors)


def hasse_derivative(f: Polynomial, a: Mapping[str, int]) -> Polynomial:
    """The Hasse-Schmidt derivative D_A f: the coefficient of Z^A in f(X+Z).

    Binomial coefficients are reduced in the field's characteristic, so this
    is the right notion in positive characteristic as well.  The shift
    m -> m - A of the terms with m >= A is injective and keeps the order.
    """
    for v in a:
        if v not in f.variables:
            raise InputError(f"unknown variable {v!r} in hasse_derivative")
    order = [(i, e) for i, e in zip(f.positions(a), a.values()) if e]
    native_int = f.field.native_int
    out = []
    for vec, c in f.vectors:
        factor = 1
        new = list(vec)
        for i, e in order:
            if vec[i] < e:
                break
            factor *= comb(vec[i], e)
            new[i] = vec[i] - e
        else:
            out.append((tuple(new), c * native_int(factor)))
    return Polynomial(f.field, f.variables, tuple(_native_terms(f.field, out)))


def hasse_derivatives(f: Polynomial, order: int) -> list[Polynomial]:
    """The nonzero D_A f of every A with |A| < order, by |A| and then in
    ascending lexicographic order of A, as ``hasse_derivative`` gives them
    one A at a time.

    They are formed in one pass over f's terms: the term c * X^M adds
    binom(M, A) * c * X^(M - A) to D_A f for each A <= M.  Each D_A f
    receives its terms in f's canonical order, which the shift M -> M - A
    keeps, so it needs no sort.
    """
    field, native_int = f.field, f.field.native_int
    parts: dict[tuple[int, ...], list[tuple[tuple, Any]]] = {}
    for vec, c in f.vectors:
        for a in product(*[range(min(e, order - 1) + 1) for e in vec]):
            if sum(a) < order:
                parts.setdefault(a, []).append((
                    tuple(map(sub, vec, a)),
                    c * native_int(prod(map(comb, vec, a)))))
    out = []
    for a in sorted(parts, key=lambda a: (sum(a), a)):
        terms = _native_terms(field, parts[a])
        if terms:
            out.append(Polynomial(field, f.variables, tuple(terms)))
    return out


def _evaluate(f: Polynomial, assignments: Mapping[str, Polynomial]) -> Polynomial:
    """f with every assigned variable replaced by its expression at once.

    The terms of f are grouped by the exponents of the assigned variables.
    Each group's remaining part is multiplied by the cached powers of the
    expressions, and every product is added into one term map, which is
    canonicalised once at the end.  Since f is read only once, the
    replacements are simultaneous.  Monomials are exponent vectors aligned
    with f's variables throughout.  A power of a zero, constant or one-term
    expression (such as v -> v*w) is formed in closed form.
    """
    index = _layout(f.variables)[0]
    slots = [index[v] for v in assignments]
    groups: dict[tuple[int, ...], list[tuple[tuple, Any]]] = {}
    for vec, c in f.vectors:
        rest = list(vec)
        for i in slots:
            rest[i] = 0
        groups.setdefault(tuple([vec[i] for i in slots]), []).append(
            (tuple(rest), c))

    field = f.field
    unit = [((0,) * len(index), field.native_int(1))]
    powers = [[unit, expr.vectors] for expr in assignments.values()]

    def power(i: int, e: int) -> list[tuple[tuple, Any]]:
        cached = powers[i]
        if len(cached[1]) < 2:
            return [(tuple([x * e for x in vec]), field.native_power(c, e))
                    for vec, c in cached[1]]
        while len(cached) <= e:
            acc: dict[tuple, Any] = {}
            _mul_into(acc, cached[-1], cached[1])
            cached.append(_native_terms(field, acc.items()))
        return cached[e]

    result: dict[tuple, Any] = {}
    for key, part in groups.items():
        factors = [power(i, e) for i, e in enumerate(key) if e]
        for factor in factors[:-1]:
            acc = {}
            _mul_into(acc, part, factor)
            part = _native_terms(field, acc.items())
        _mul_into(result, part, factors[-1] if factors else unit)
    return _canonical(field, f.variables, result.items())


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


def strict_transform(f: Polynomial, center: Sequence[str], var: str) -> tuple[Polynomial, int]:
    """(strict, m): f in the blow-up chart of ``var`` (every other variable v
    of ``center`` replaced by v * var), divided by var^m, the largest power
    of var dividing that total transform.

    On exponent vectors a term's exponent of ``var`` becomes its sum over
    the center minus m, and every other exponent is kept.  The map is
    injective, since the old exponent of ``var`` is the new one plus m minus
    the others' sum over the center; so no two terms collide, the
    coefficients are unchanged, and one ``_canonical`` sorts the result.
    """
    if var not in center:
        raise InputError(f"chart variable {var!r} is not in the center")
    i, slots = f.positions([var])[0], f.positions(set(center))
    sums = [sum([vec[j] for j in slots]) for vec, _c in f.vectors]
    m = min(sums, default=0)
    return _canonical(f.field, f.variables, [
        (vec[:i] + (s - m,) + vec[i + 1:], c)
        for (vec, c), s in zip(f.vectors, sums)]), m


def restrict_to_zero(f: Polynomial, variables: Iterable[str]) -> Polynomial:
    """f restricted to V(variables): the terms with no exponent on any of
    the named variables, a subset of f's terms in f's order."""
    slots = f.positions(variables)
    if not slots:
        return f
    return Polynomial(f.field, f.variables, tuple([
        term for term in f.vectors if not any([term[0][j] for j in slots])]))


def translate(f: Polynomial, var: str, c: Any, shift: Mapping[str, int]) -> Polynomial:
    """f with ``var`` replaced by var + c * prod(v^shift[v]), for c in f's
    field (public or stored) and a shift that does not name ``var``.

    A term a * var^b expands by the binomial theorem into the terms
    C(b, k) c^k a var^(b-k) prod(v^(k shift[v])), formed on the exponent
    vectors and canonicalised once; over F_p, C(b, k) and c^k are reduced.
    """
    field, index = f.field, _layout(f.variables)[0]
    if (var not in index or not set(shift) <= index.keys() - {var}
            or any(type(e) is not int or e < 0 for e in shift.values())):
        raise InputError(f"cannot translate {var!r} by the monomial {dict(shift)}")
    try:
        c = field.to_native(c)
    except TypeError as err:
        raise InputError(str(err)) from None
    if not c:
        return f
    step = [shift.get(v, 0) for v in f.variables]
    i = index[var]
    step[i] = -1
    p, native_int = field.characteristic, field.native_int
    exponents = {vec[i] for vec, _ in f.vectors}
    powers = [field.native_power(c, k) for k in range(max(exponents, default=0) + 1)]
    # each exponent b of var -> [(the move k * step, C(b, k) c^k) for k = 1..b]
    rows = {b: [(tuple([k * s for s in step]), native_int(n) * powers[k])
                for k in range(1, b + 1) if (n := comb(b, k) % p if p else comb(b, k))]
            for b in exponents}
    acc = dict(f.vectors)  # the terms of k = 0
    for vec, a in f.vectors:
        for move, factor in rows[vec[i]]:
            m = tuple(map(add, vec, move))
            t = a * factor
            s = acc.get(m)
            acc[m] = t if s is None else s + t
    return _canonical(field, f.variables, acc.items())


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Largest product of two operands' term counts that the parser multiplies out
# (beyond it, ScopeError).  No job of the test suite or the benchmark needs
# more than 6; at 10**5 the refusal comes within a fraction of a second.
MAX_PARSE_PRODUCT = 10**5
# Largest exponent the parser accepts (beyond it, ScopeError).  The largest
# exponent the test suite parses is 316, the benchmark's 23.
MAX_PARSE_EXPONENT = 1000
# Most decimal digits of an integer in the text, and about the most of a
# rational coefficient a power in the text may build (beyond them,
# ScopeError); well under the interpreter's limit on converting integers to
# and from text.
MAX_PARSE_DIGITS = 1000
_MAX_PARSE_BITS = MAX_PARSE_DIGITS * 10 // 3


def _coefficient_bits(field: FieldDescriptor, terms: dict) -> int:
    """Bit length of the largest numerator or denominator among the stored
    coefficients of a parse node over the rationals; 0 over the other
    fields."""
    if field.kind != RATIONALS:
        return 0
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# A token, after any white space: a name, an operator, or an integer of
# decimal digits (not only ASCII ones).
_TOKEN = re.compile(rf"\s*({_NAME.pattern}|[\^*+\-/()]|\d+)")
# A character that is neither white space nor part of a token; ``findall``
# would step over it, so the first one is refused before the text is read.
_BAD_CHARACTER = re.compile(r"[^\s\dA-Za-z_^*+\-/()]")
_OPERATORS = frozenset("^*+-/()")


@lru_cache(maxsize=256)
def _unit_vectors(variables: tuple[str, ...],
                  parameter: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """Each variable's unit exponent vector; no entries if a name repeats
    (the parser refuses that ring at its first atom).  Every variable and
    the ``parameter`` of F_p(t) must be a NAME of the grammar, or a printed
    polynomial could read back as another one."""
    for name in variables + parameter:
        if not _NAME.fullmatch(name):
            raise InputError(
                f"the name {name!r} cannot be written in polynomial text: a "
                "name is a letter or '_' followed by letters, digits or '_'")
    index = _layout(variables)[0]
    if len(index) != len(variables):
        return {}
    origin = (0,) * len(variables)
    return {v: origin[:i] + (1,) + origin[i + 1:] for v, i in index.items()}


class _Parser:
    """Recursive-descent parser for the polynomial text grammar.

    Grammar (whitespace insignificant)::

        expr   :=  ['-'] term { ('+'|'-') term }
        term   :=  power { ('*'|'/') power }
        power  :=  atom [ '^' INT ]
        atom   :=  INT | NAME | '(' expr ')'

    Division is only allowed by constants (coefficients).  NAME resolves to an
    ambient variable, or to the field's transcendental / extension generator.

    Every node is a dict from exponent vector (aligned with ``variables``)
    to a nonzero stored coefficient: zero terms are dropped after each
    operation, so the caps see the term counts of the canonical polynomials,
    and ``parse`` builds the one ``Polynomial``.  A variable and its power
    are formed from its unit vector, and a product of two one-term nodes is
    one vector addition.  The tokens are read by index; the last is None.
    """

    def __init__(self, tokens: list[str | None], field: FieldDescriptor,
                 variables: tuple[str, ...], units: dict[str, tuple[int, ...]]):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.variables = variables
        self.units = units
        self.repeated = len(units) != len(variables)
        self.origin = (0,) * len(variables)
        self.one = field.native_int(1)
        # the modulus of stored F_p coefficients; 0 over the other fields
        self.p = field.characteristic if field.kind == PRIME_FIELD else 0
        self.rational = field.kind == RATIONALS

    def next_token(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            raise InputError("unexpected end of polynomial text")
        self.i += 1
        return tok

    def nonzero(self, terms: Iterable[tuple[tuple, Any]]) -> dict:
        """The node of the terms with nonzero coefficient, stored form."""
        return dict(_native_terms(self.field, terms))

    def stored(self, c: Any) -> Any:
        """The stored form of a nonzero coefficient: an F_p residue reduced
        mod p, an integral fraction made an int."""
        if self.p:
            return c % self.p
        if self.rational and type(c) is not int:
            return self.field.to_native(c)
        return c

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.tokens[self.i]
        if tok is not None:
            kind = ("op" if tok in _OPERATORS
                    else "int" if tok.isdecimal() else "name")
            raise InputError(f"trailing tokens in polynomial text: {(kind, tok)!r}")
        return _canonical(self.field, self.variables, result.items())

    def expr(self) -> dict:
        tokens = self.tokens
        negate = tokens[self.i] == "-"
        if negate or tokens[self.i] == "+":
            self.i += 1
        acc = self.term()
        if negate:
            acc = {m: -c for m, c in acc.items()}
        elif tokens[self.i] != "+" and tokens[self.i] != "-":
            return acc  # one term: nonzero and stored already
        while True:
            tok = tokens[self.i]
            if tok == "+":
                self.i += 1
                for m, c in self.term().items():
                    s = acc.get(m)
                    acc[m] = c if s is None else s + c
            elif tok == "-":
                self.i += 1
                for m, c in self.term().items():
                    s = acc.get(m)
                    acc[m] = -c if s is None else s - c
            else:
                return self.nonzero(acc.items())

    def term(self) -> dict:
        result = self.power()
        tokens = self.tokens
        while True:
            tok = tokens[self.i]
            if tok == "*":
                self.i += 1
                result = self.multiply(result, self.power())
            elif tok == "/":
                self.i += 1
                divisor = self.power()
                # a nonzero constant is the one term at the origin
                if list(divisor) != [self.origin]:
                    raise InputError("division is only allowed by nonzero coefficients")
                field = self.field
                inverse = field.to_native(
                    field.one() / field.to_public(divisor[self.origin]))
                result = self.nonzero([(m, c * inverse) for m, c in result.items()])
            else:
                return result

    def power(self) -> dict:
        tokens = self.tokens
        unit = self.units.get(tokens[self.i])  # type: ignore[arg-type]
        if unit is not None:  # a variable, coefficient 1
            self.i += 1
            if tokens[self.i] != "^":
                return {unit: self.one}
            # c = 1 has (bits - 1) * e = 0: no coefficient bound to check
            e = self.exponent()
            return {tuple([e * x for x in unit]): self.one}
        base = self.atom()
        if tokens[self.i] != "^":
            return base
        e = self.exponent()
        # a coefficient c > 1 has c**e >= 2**((bits - 1) * e)
        if (_coefficient_bits(self.field, base) - 1) * e > _MAX_PARSE_BITS:
            raise ScopeError(
                f"a power in the polynomial text builds a coefficient of "
                f"more than {MAX_PARSE_DIGITS} digits (MAX_PARSE_DIGITS)")
        if len(base) == 1:  # c * m: its power is c**e * m**e
            (vec, c), = base.items()
            return {tuple([e * x for x in vec]):
                    self.stored(self.field.native_power(c, e))}
        one = {self.origin: self.one}
        return _power(base, e, one, self.multiply)

    def exponent(self) -> int:
        """The exponent after the '^' at the current token, within
        ``MAX_PARSE_EXPONENT``."""
        self.i += 1
        text = self.next_token()
        if not text.isdecimal():
            raise InputError("exponent must be a nonnegative integer")
        e = self.integer(text)
        if e > MAX_PARSE_EXPONENT:
            raise ScopeError(
                f"the exponent {e} in the polynomial text is over the "
                f"limit of {MAX_PARSE_EXPONENT} (MAX_PARSE_EXPONENT)")
        return e

    def integer(self, text: str) -> int:
        if len(text) > MAX_PARSE_DIGITS:
            raise ScopeError(
                f"an integer of {len(text)} digits in the polynomial text is "
                f"over the limit of {MAX_PARSE_DIGITS} digits (MAX_PARSE_DIGITS)")
        return int(text)

    def multiply(self, a: dict, b: dict) -> dict:
        if len(a) * len(b) > MAX_PARSE_PRODUCT:
            raise ScopeError(
                f"expanding the polynomial text needs a product of "
                f"{len(a)} by {len(b)} terms, over the limit of "
                f"{MAX_PARSE_PRODUCT} term products (MAX_PARSE_PRODUCT)")
        if len(a) == 1 == len(b):  # nonzero coefficients: a nonzero product
            (m1, c1), = a.items()
            (m2, c2), = b.items()
            return {tuple(map(add, m1, m2)): self.stored(c1 * c2)}
        acc: dict[tuple, Any] = {}
        _mul_into(acc, a.items(), b.items())
        return self.nonzero(acc.items())

    def leaf(self, c: Any) -> dict:
        """The node of the constant c.  A ring with a repeated variable name
        is refused at its first atom, so the errors of the text before it
        come first."""
        if self.repeated:
            raise InputError("duplicate ambient variable names")
        return self.nonzero([(self.origin, c)])

    def atom(self) -> dict:
        """An atom other than a variable of a ring without repeated names,
        which ``power`` reads itself."""
        tok = self.next_token()
        field = self.field
        if tok == "(":
            inner = self.expr()
            if self.next_token() != ")":
                raise InputError("expected ')' in polynomial text")
            return inner
        if tok in _OPERATORS:
            raise InputError(f"unexpected token {tok!r} in polynomial text")
        if tok.isdecimal():
            return self.leaf(field.native_int(self.integer(tok)))
        if tok in self.variables:
            raise InputError("duplicate ambient variable names")
        if field.kind == RATIONAL_FUNCTIONS and tok == field.transcendental_name:
            return self.leaf(field.transcendental())
        if field.kind == FINITE_EXTENSION and tok == field.generator_name:
            return self.leaf(field.generator())
        raise InputError(f"unknown variable {tok!r}")


def parse_polynomial(text: str, field: FieldDescriptor, variables: Iterable[str]) -> Polynomial:
    """Parse polynomial text over the given field and ambient variable list.
    Every variable and the parameter of F_p(t) must be a NAME of the
    grammar, or a printed polynomial could read back as another one.  Text
    nested deeper than the interpreter's stack allows is an input error."""
    vs = tuple(variables)
    units = _unit_vectors(vs, (field.transcendental_name,)
                          if field.kind == RATIONAL_FUNCTIONS else ())
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise InputError(f"unexpected character in polynomial: {bad.group()!r}")
    tokens: list[str | None] = _TOKEN.findall(text)
    if not tokens:
        raise InputError("empty polynomial text")
    tokens.append(None)
    try:
        return _Parser(tokens, field, vs, units).parse()
    except RecursionError:
        raise InputError("the polynomial text nests too deeply") from None
