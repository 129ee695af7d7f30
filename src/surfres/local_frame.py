"""Chart-local coordinate frames, order invariants, ridge and directrix.

A frame splits a chart's ambient variables into a transversal block ``u`` and
a residual block ``y`` and carries the boundary divisors with their history
status (old/new), each reading its coordinate once (``variable``).  On top
of it this module computes:

* initial forms and ``nu_star``, the sorted orders of the generators
  (compared lexicographically with infinity padding, so a shorter list
  dominates its extensions);
* the ridge of a cone (additive generators of the saturated derivative span);
* the directrix (largest linear subspace of the ridge's zero locus),
  memoised by one bounded ``lru_cache`` on the tuple of nonzero initial
  forms, for the life of the process.  It takes one of three paths.  When
  every form is a monomial c x^m the directrix is V(x_i : some m_i > 0),
  read off the exponent vectors, in every characteristic.  Otherwise the
  split is on the characteristic p and the largest degree d of the forms.
  When p = 0 or d < p the ridge's only slice is its linear part, the span
  of the (deg f - 1)-th Hasse derivatives of the forms f, so the directrix
  is the common kernel of those linear forms, read straight off the terms.
  When p > 0 and d >= p it is cut out by the ridge's additive forms, via
  q-th roots over perfect fields and Frobenius splitting over F_p(t), both
  done by ``exact_algebra``.  ``compute_directrix`` gives the argument that
  the paths agree; the translation certificate checks the result on all
  three;
* the directrix of the ideal multiplied by the old boundary components.

The exact linear algebra runs on one routine, ``echelon_add``, which adds a
vector to a reduced echelon basis kept as pivot column -> row; ``row_reduce``
folds it over its rows, and ``_echelon_kernel`` reads the kernel off a basis.
The ridge writes a form of degree d as a coefficient row over
``monomials_of_degree(n, d)``, the degree-d monomials in one fixed order: the
Hasse-derivative closure is one echelon basis per degree, an ideal slice is
the echelon basis of the generators' monomial multiples, a slice's additive
forms are its rows with pure-power pivots when the mixed monomials lead the
columns, and the containment certificate reduces each degree of the closure
against that degree of the additive forms' ideal.  ``form_row`` and
``row_form`` turn forms sum_i c_i v_i^q into coefficient rows and back.

The rows hold stored coefficients (``FieldDescriptor.to_native``), read
straight off ``Polynomial.vectors``: ints over Q and F_p, a ``Fraction``
only for a rational with a denominator.  Every row operation ends in that
form (reduced mod p over F_p, integral fractions made ints over Q), and a
pivot is inverted by ``FieldDescriptor.native_inverse``.  The one place the
linear algebra meets public elements is the ridge's ``_linear_conditions``,
whose q-th roots and Frobenius splitting take them; its rows go back to
stored form.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, total_ordering
from operator import add
from typing import Any, Callable, Iterable, Iterator, Sequence

from .exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    Polynomial,
    PRIME_FIELD,
    RATIONAL_FUNCTIONS,
    RATIONALS,
    ScopeError,
    frobenius_split,
    hasse_derivatives,
    ord_at,
    primitive_vector,
    q_th_root,
    translate,
)

OLD = "old"
NEW = "new"

# Largest degree of an initial form whose directrix is computed (beyond it,
# ScopeError), on both paths of ``compute_directrix``.  On the ridge path
# (p > 0 and a degree >= p) the linear algebra grows steeply with the degree:
# on a 2-CPU machine, analyze of (x+y+z)^10 over F_3 takes about 0.17 s and
# of (x+y+z+w)^10 about 1.05 s.  Over Q the directrix is read off the linear
# derivatives, and the two take about 0.16 s and 0.23 s (each run includes
# about 0.1 s of interpreter start and imports).  Apart from the test of this
# cap, the test suite needs degree 5, the benchmark 3.
MAX_DIRECTRIX_DEGREE = 10


@dataclass(frozen=True)
class BoundaryComponent:
    """A regular divisor through the chart origin, with history status;
    ``variable`` is ``coordinate_variable(generator)``, set when made."""

    generator: Polynomial
    status: str
    birth_step: int = 0
    cid: int = -1
    variable: str | None = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.status not in (OLD, NEW):
            raise InputError(f"boundary status must be old/new, got {self.status!r}")
        g = self.generator
        if ord_at(g, g.variables) != 1:
            raise InputError(
                f"boundary generator {g} is not regular at the origin (order != 1)"
            )
        object.__setattr__(self, "variable", coordinate_variable(g))


def unchecked_component(generator: Polynomial, status: str, birth_step: int,
                        cid: int) -> BoundaryComponent:
    """A boundary component built without the check of ``__post_init__``,
    for a generator known to have order one at the origin: a checked
    component's (``made_old``) or a variable (the exceptional divisor of a
    blow-up).  Each field is set in the order the dataclass's ``__init__``
    and ``__post_init__`` set them, which keeps the instance's compact
    attribute storage; filling its ``__dict__`` would double the size of
    the instance."""
    comp = object.__new__(BoundaryComponent)
    for name, value in (("generator", generator), ("status", status),
                        ("birth_step", birth_step), ("cid", cid),
                        ("variable", coordinate_variable(generator))):
        object.__setattr__(comp, name, value)
    return comp


def made_old(b: BoundaryComponent) -> BoundaryComponent:
    """``dataclasses.replace(b, status=OLD)`` without re-running the check
    of ``__post_init__`` on b's generator, which was checked already."""
    return unchecked_component(b.generator, OLD, b.birth_step, b.cid)


@dataclass(frozen=True)
class Frame:
    """An ordered split (u; y) of a chart's variables plus its boundary."""

    u_block: tuple[str, ...]
    y_block: tuple[str, ...]
    boundary: tuple[BoundaryComponent, ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.u_block) & set(self.y_block)
        if overlap:
            raise InputError(f"u and y blocks overlap: {sorted(overlap)}")
        if len(set(self.u_block)) != len(self.u_block) or len(set(self.y_block)) != len(self.y_block):
            raise InputError("duplicate variable in frame blocks")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.u_block + self.y_block

    @property
    def e(self) -> int:
        return len(self.u_block)

    @property
    def r(self) -> int:
        return len(self.y_block)

    def old_components(self) -> tuple[BoundaryComponent, ...]:
        return tuple(b for b in self.boundary if b.status == OLD)

    def new_components(self) -> tuple[BoundaryComponent, ...]:
        return tuple(b for b in self.boundary if b.status == NEW)


@total_ordering
@dataclass(frozen=True)
class NuStar:
    """Nondecreasing order vector, ordered lexicographically with inf padding.

    The padding makes a strict prefix *larger* than its extensions:
    (2,) compares as (2, inf, ...) and so exceeds (2, 3).
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise InputError("nu_star must have at least one entry")
        for a, b in zip(self.orders, self.orders[1:]):
            if a > b:
                raise InputError("nu_star entries must be nondecreasing")
        for a in self.orders:
            if a < 0:
                raise InputError("nu_star entries must be nonnegative")

    def __lt__(self, other: "NuStar") -> bool:
        return self.orders + (INF,) < other.orders + (INF,)


# ---------------------------------------------------------------------------
# initial forms and nu_star
# ---------------------------------------------------------------------------

def initial_form(f: Polynomial, at: Iterable[str]) -> Polynomial:
    """Sum of the terms of minimal total degree in the given variables."""
    if f.is_zero:
        raise InputError("initial form of the zero polynomial is undefined")
    vs = set(at)
    for v in vs:
        if v not in f.variables:
            raise InputError(f"unknown variable {v!r} in initial_form")
    pos = f.positions(vs)
    degrees = [sum([vec[i] for i in pos]) for vec, _ in f.vectors]
    lo = min(degrees)
    return Polynomial(f.field, f.variables, tuple([
        term for term, d in zip(f.vectors, degrees) if d == lo]))


def coordinate_variable(f: Polynomial) -> str | None:
    """The variable v when f is a unit multiple c*v of one coordinate, else
    None: read off f's one exponent vector."""
    if len(f.vectors) != 1:
        return None
    vec = f.vectors[0][0]
    return f.variables[vec.index(1)] if sum(vec) == 1 else None


def nu_star(orders: Iterable[int]) -> NuStar:
    """The generators' origin orders (``ChartState.orders``), sorted."""
    return NuStar(tuple(sorted(orders)))


def compose_with_old_boundary(gens: Sequence[Polynomial], frame: Frame) -> list[Polynomial]:
    """Multiply every generator by the product of the old boundary generators."""
    out = list(gens)
    for b in frame.old_components():
        out = [g * b.generator for g in out]
    return out


# ---------------------------------------------------------------------------
# small exact linear algebra (rows are lists of stored coefficients)
# ---------------------------------------------------------------------------

def _stored(field: FieldDescriptor) -> Callable[[list[Any]], list[Any]]:
    """The map that puts a row of sums and products of stored coefficients
    back in stored form: reduced mod p over F_p, integral ``Fraction``s made
    ints over Q; over F_q and F_p(t) the elements are their stored form."""
    if field.kind == PRIME_FIELD:
        p = field.characteristic
        return lambda row: [x % p for x in row]
    if field.kind == RATIONALS:
        return lambda row: [x if type(x) is int or x.denominator != 1
                            else x.numerator for x in row]
    return list


def echelon_add(echelon: dict[int, list[Any]], vec: Sequence[Any],
                field: FieldDescriptor) -> int | None:
    """Add a vector to a reduced echelon basis; the new pivot, or None.

    ``echelon`` maps each pivot column to its row, which has a 1 there, 0 in
    every other pivot column and 0 before its pivot.  The vector is reduced
    against the rows; if anything is left it is scaled to a leading 1, its
    leading column is cleared from the other rows and it joins the basis
    with that column as its pivot.  None means the vector was dependent and
    nothing changed.  Rows are replaced, never changed in place.

    Entries are stored coefficients (``FieldDescriptor.to_native``); over
    F_p the vector's may be any ints.  Every row operation ends in stored
    form, so the rows compare and hash as the field's stored elements do.
    """
    stored = _stored(field)
    vec = stored(vec)
    for col, row in echelon.items():
        c = vec[col]
        if c:
            vec = stored([a - c * b if b else a for a, b in zip(vec, row)])
    lead = next((i for i, x in enumerate(vec) if x), None)
    if lead is None:
        return None
    if vec[lead] != 1:  # over Q and F_p a stored 1 is the int 1
        inv = field.native_inverse(vec[lead])
        vec = stored([x * inv if x else x for x in vec])
    for col, row in echelon.items():
        c = row[lead]
        if c:
            echelon[col] = stored([a - c * b if b else a for a, b in zip(row, vec)])
    echelon[lead] = vec
    return lead


def row_reduce(rows: list[list[Any]], field: FieldDescriptor) -> list[list[Any]]:
    """Reduced row echelon form of rows of stored coefficients; zero rows
    dropped."""
    echelon: dict[int, list[Any]] = {}
    for row in rows:
        echelon_add(echelon, row, field)
    return [echelon[col] for col in sorted(echelon)]


def _echelon_kernel(echelon: dict[int, list[Any]], ncols: int,
                    field: FieldDescriptor) -> list[list[Any]]:
    """Basis of the right kernel of a reduced echelon basis: one vector per
    free column, 1 there and minus that column's entries at the pivots."""
    zero, one, stored = field.native_int(0), field.native_int(1), _stored(field)
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pc, row in echelon.items():
            vec[pc] = -row[fc]
        basis.append(stored(vec))
    return basis


def monomials_of_degree(n: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Every exponent vector of n variables with the given total degree, in
    ascending lexicographic order: the degree-d monomials."""
    if n == 0:
        if degree == 0:
            yield ()
        return
    for e in range(degree + 1):
        for tail in monomials_of_degree(n - 1, degree - e):
            yield (e,) + tail


@lru_cache(maxsize=64)
def _column_index(n: int, degree: int) -> dict[tuple[int, ...], int]:
    """Column of each degree-d monomial (degrees stay under the ridge's cap)."""
    return {m: i for i, m in enumerate(monomials_of_degree(n, degree))}


def _pure_power(n: int, i: int, degree: int) -> tuple[int, ...]:
    """The exponent vector of v_i^degree among n variables."""
    return (0,) * i + (degree,) + (0,) * (n - i - 1)


def form_row(f: Polynomial, variables: Sequence[str], degree: int = 1) -> list[Any]:
    """The stored coefficients c_i of a form sum_i c_i * v_i^degree over the
    variables."""
    if f.is_zero or int(f.total_degree()) != degree:
        raise InputError(f"expected a nonzero form of degree {degree}, got {f}")
    coefficients, zero, n = dict(f.vectors), f.field.native_int(0), len(f.variables)
    return [coefficients.get(_pure_power(n, i, degree), zero)
            for i in f.positions(variables)]


def row_form(row: Sequence[Any], field: FieldDescriptor,
             variables: tuple[str, ...], degree: int = 1) -> Polynomial:
    """The form sum_i c_i * v_i^degree of coefficients c_i (stored or
    public) over the variables."""
    n = len(variables)
    return Polynomial.from_vectors(field, variables, {
        _pure_power(n, i, degree): c for i, c in enumerate(row) if c})


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def _is_homogeneous(f: Polynomial) -> bool:
    if f.is_zero:
        return True
    return len({sum(vec) for vec, _ in f.vectors}) == 1


def _top_degree(gens: Sequence[Polynomial]) -> int:
    """The largest degree of the nonzero forms, each checked homogeneous and
    the largest checked against ``MAX_DIRECTRIX_DEGREE``."""
    for f in gens:
        if not _is_homogeneous(f):
            raise InputError(f"ridge input is not homogeneous: {f}")
    degree = max(int(f.total_degree()) for f in gens)
    if degree > MAX_DIRECTRIX_DEGREE:
        raise ScopeError(
            f"the directrix of an initial form of degree {degree} is over the "
            f"limit of {MAX_DIRECTRIX_DEGREE} (MAX_DIRECTRIX_DEGREE)")
    return degree


def _derivative_closure(gens: Sequence[Polynomial]) -> dict[int, dict[int, list[Any]]]:
    """Smallest span containing the forms and stable under Hasse derivatives.

    Returned per total degree d as a reduced echelon basis over the columns
    ``monomials_of_degree(n, d)``.  It is spanned by the D_a f of the input
    forms f with 0 <= |a| <= deg f - 1: since D_b D_a = C(a+b, a) D_{a+b},
    a derivative of one of them is a multiple of another.
    """
    field = gens[0].field
    n, zero = len(gens[0].variables), field.native_int(0)
    closure: dict[int, dict[int, list[Any]]] = {}
    for f in gens:
        # Highest orders first: over F_p(t) this order keeps the echelon
        # rows' entries smaller than the reverse one does.
        for df in reversed(hasse_derivatives(f, int(f.total_degree()))):
            d = int(df.total_degree())
            index = _column_index(n, d)
            row = [zero] * len(index)
            for m, c in df.vectors:
                row[index[m]] = c
            echelon_add(closure.setdefault(d, {}), row, field)
    return closure


def _p_power_degrees(max_degree: int, p: int) -> list[int]:
    if p == 0:
        return [1] if max_degree >= 1 else []
    out = [1]
    q = p
    while q <= max_degree:
        out.append(q)
        q *= p
    return out


def _ideal_slice(
    generators: Sequence[list[tuple[tuple[int, ...], Any]]],
    columns: Sequence[tuple[int, ...]], field: FieldDescriptor,
) -> dict[int, list[Any]]:
    """Reduced echelon basis, over the given columns (the monomials of one
    degree q in some order), of the degree-q part of the homogeneous ideal
    generated by the forms, each given as (exponent vector, stored
    coefficient) terms."""
    n, q = len(columns[0]), sum(columns[0])
    index = {m: i for i, m in enumerate(columns)}
    zero = field.native_int(0)
    echelon: dict[int, list[Any]] = {}
    for terms in generators:
        d = sum(terms[0][0])
        if d > q:
            continue
        for shift in monomials_of_degree(n, q - d):
            row = [zero] * len(columns)
            for m, c in terms:
                row[index[tuple(map(add, m, shift))]] = c
            echelon_add(echelon, row, field)
            if len(echelon) == len(columns):
                return echelon
    return echelon


def _normalize_sigma_vector(vec: list[Any], field: FieldDescriptor) -> list[Any]:
    """Pick a readable representative of a stored vector: clear F_p(t)
    denominators, lead with 1."""
    if field.kind == RATIONAL_FUNCTIONS:
        return primitive_vector(vec)
    inv = field.native_inverse(next(c for c in vec if c))
    return _stored(field)([c * inv for c in vec])


def compute_ridge(initials: Sequence[Polynomial]) -> list[Polynomial]:
    """Additive generators of the ridge of the cone cut out by the inputs.

    Saturates the input span under Hasse derivatives, then extracts the
    additive elements of the graded slices of the ideal generated by that
    closure, degree by degree (powers of the characteristic; only degree 1 in
    characteristic 0), returning a triangular minimal generating set.  A
    containment certificate re-checks that the closure lies in the ideal
    generated by the returned additive forms.
    """
    gens = [f for f in initials if not f.is_zero]
    if not gens:
        return []
    field = gens[0].field
    variables = gens[0].variables
    _top_degree(gens)
    closure = _derivative_closure(gens)
    if not closure:
        return []
    n = len(variables)
    closure_terms = [
        [(m, c) for m, c in zip(monomials_of_degree(n, d), row) if c]
        for d, echelon in closure.items() for row in echelon.values()]

    chosen: list[tuple[int, list[Any]]] = []  # (degree q, coefficient vector)
    for q in _p_power_degrees(max(closure), field.characteristic):
        # The additive forms of the slice are the combinations with no mixed
        # monomial.  With the mixed monomials as the leading columns, a row
        # whose pivot is a pure q-th power is zero on every mixed column; and
        # a combination of the rows takes its coefficient on a row at that
        # row's pivot, so it is zero on the mixed columns only if it leaves
        # out every row with a mixed pivot.  Hence the rows with pure pivots
        # span exactly the slice's additive forms.
        pure = [tuple(q if j == i else 0 for j in range(n)) for i in range(n)]
        pure_set = set(pure)
        mixed = [m for m in monomials_of_degree(n, q) if m not in pure_set]
        k = len(mixed)
        slice_echelon = _ideal_slice(closure_terms, mixed + pure, field)
        # Keep those independent of the Frobenius lifts of the forms chosen
        # in lower degrees: sigma^(q/q_j) has coefficients c^(q/q_j).
        lifted: dict[int, list[Any]] = {}
        for qj, vec in chosen:
            echelon_add(lifted, [field.native_power(c, q // qj) for c in vec],
                        field)
        for col in sorted(slice_echelon):
            if col < k:
                continue
            lead = echelon_add(lifted, slice_echelon[col][k:], field)
            if lead is not None:
                chosen.append((q, lifted[lead]))

    out = [row_form(_normalize_sigma_vector(vec, field), field, variables, q)
           for q, vec in chosen]

    # Containment certificate: each degree of the derivative closure (hence
    # the inputs) lies in the same degree of the ideal of the additive forms.
    out_terms = [s.vectors for s in out]
    for d, echelon in closure.items():
        slice_echelon = _ideal_slice(out_terms, list(monomials_of_degree(n, d)), field)
        if any(echelon_add(slice_echelon, row, field) is not None
               for row in echelon.values()):
            raise RuntimeError(
                "ridge certificate failed: closure element outside the additive ideal"
            )
    return out


# ---------------------------------------------------------------------------
# directrix
# ---------------------------------------------------------------------------

def _linear_conditions(sigma_degree: int, vec: list[Any], field: FieldDescriptor) -> list[list[Any]]:
    """Linear conditions over k cutting out the k-points of ker(sigma), for
    the stored coefficients of sigma.  The q-th roots and the Frobenius
    splitting take public elements: the one place the linear algebra
    converts."""
    q = sigma_degree
    if q == 1:
        return [list(vec)]
    public = field.to_public
    if field.is_perfect:
        row = [q_th_root(public(c), q, field) for c in vec]
        assert all(r is not None for r in row)
        return [[field.to_native(r) for r in row]]
    # F_p(t): split every coefficient over the k^q-basis 1, t, ..., t^{q-1};
    # a ``RatFunc`` is public and stored alike.
    rows: list[list[Any]] = []
    splits = [frobenius_split(public(c), q) for c in vec]
    for j in range(q):
        row = [s[j] for s in splits]
        if any(row):
            rows.append(row)
    return rows


def translation_invariant(f: Polynomial, w: Sequence[Any]) -> bool:
    """Whether f(X + T*w) == f(X) identically for the direction vector w of
    stored coefficients.

    Pick a pivot i with w_i != 0 and change coordinates by phi:
    x_j <- x_j + (w_j / w_i) x_i for every other j with w_j != 0, one
    ``translate`` each; x_i is never moved, so the moves commute.  phi sends
    e_i to w / w_i, so g = f(phi(Y)) satisfies
    g(Y + s e_i) = f(phi(Y) + (s / w_i) w).  Since phi is invertible, f is
    invariant under translation by w exactly when g(Y + s e_i) = g(Y)
    identically, that is, when every Hasse derivative of g in y_i of
    positive order vanishes, which is when no term of g contains y_i.
    Hasse derivatives make this hold in every characteristic.
    """
    i = next((k for k, c in enumerate(w) if c), None)
    if i is None:
        return True
    pivot, scale = f.variables[i], f.field.native_inverse(w[i])
    for v, c in zip(f.variables, w):
        if c and v != pivot:
            f = translate(f, v, c * scale, {pivot: 1})
    return not any(vec[i] for vec, _ in f.vectors)


def _directrix_rows(gens: Sequence[Polynomial]) -> list[list[Any]]:
    """Linear conditions over k whose common zeros are the directrix of the
    nonzero forms; ``compute_directrix`` gives the three paths and why."""
    field, variables = gens[0].field, gens[0].variables
    degree, p = _top_degree(gens), field.characteristic
    zero, n = field.native_int(0), len(variables)
    if all(len(f.vectors) == 1 for f in gens):
        # monomials: the unit row of each variable in their supports
        support = {i for f in gens for i, e in enumerate(f.vectors[0][0]) if e}
        one = field.native_int(1)
        return [[one if j == i else zero for j in range(n)]
                for i in sorted(support)]
    if p and degree >= p:
        rows: list[list[Any]] = []
        for s in compute_ridge(gens):
            q = int(s.total_degree())
            rows.extend(_linear_conditions(q, form_row(s, variables, q), field))
        return rows
    # The row of D_a f: the term c x^m with m = a + e_i gives m_i c at column
    # i (over F_p unreduced; ``echelon_add`` reduces it).
    ints = [field.native_int(e) for e in range(degree + 1)]
    derivatives: dict[tuple[int, tuple[int, ...]], list[Any]] = {}
    for k, f in enumerate(gens):
        for m, c in f.vectors:
            for i, e in enumerate(m):
                if e:
                    a = (k, m[:i] + (e - 1,) + m[i + 1:])
                    row = derivatives.get(a)
                    if row is None:
                        row = derivatives[a] = [zero] * n
                    row[i] = ints[e] * c
    return list(derivatives.values())


def compute_directrix(
    initials: Sequence[Polynomial], frame: Frame
) -> tuple[int, list[Polynomial]]:
    """Largest linear subspace of the ridge's zero locus.

    Returns (r, forms): r independent linear forms cutting out the directrix,
    so e = dim(ambient) - r.  Certified by the translation test on a basis of
    the directrix before returning.

    The condition rows come from one of three paths:

    * every nonzero form a monomial c x^m: the unit rows of the variables
      in the union of their supports.  c x^m is invariant under translation
      by w exactly when w_i = 0 for every i with m_i > 0: if w_i != 0, the
      product of the (x_j + w_j)^(m_j) has the term c w_i^(m_i)
      x^(m - m_i e_i), which c x^m does not have.  So the directrix of the
      monomials is V(x_i : some m_i > 0), in every characteristic, and this
      path is taken before the split below.
    * else, p > 0 and the largest degree d of the forms at least p: the
      ridge (``compute_ridge``), each additive form sum_i c_i v_i^q read as
      its conditions over k (``_linear_conditions``).
    * else (p = 0 or d < p): the rows D_a f, |a| = deg f - 1, of the forms
      f, straight from their terms.  This is the ridge's answer:

      (i) D_b D_a = C(a+b, a) D_{a+b}, so the degree-1 part of the
          derivative closure is the span of the D_a f with |a| = deg f - 1;
          with no q = p^k > 1 at or below d, the ridge's only slice is
          q = 1, which is that span.
      (ii) If f is invariant under translation by w, so is every Hasse
          derivative of f, and a linear form invariant under w vanishes at
          w; so the true directrix T lies inside the computed kernel W.
      (iii) The translation certificate below proves W inside T.  It also
          implies the ridge's containment certificate for these inputs,
          since f in k[L] puts every derivative of f in the ideal (L).

    Every path's rows are reduced to the canonical reduced echelon form of
    the same span (the monomial path's unit rows are in that form already,
    in chart order), so (r, forms) does not depend on the path.  The cap
    ``MAX_DIRECTRIX_DEGREE`` and the homogeneity check come first on all
    three (``_directrix_rows``).

    The result is memoised by ``_directrix`` on the tuple of nonzero
    initial forms, which hold their field (residue extensions included) and
    variables; ``frame`` is not read, so it is not in the key.  An exception
    is not memoised, so every call with its input raises it.
    """
    gens = tuple(f for f in initials if not f.is_zero)
    if not gens:
        return 0, []
    r, forms = _directrix(gens)
    return r, list(forms)


@lru_cache(maxsize=1024)
def _directrix(gens: tuple[Polynomial, ...]) -> tuple[int, tuple[Polynomial, ...]]:
    """(r, forms) of ``compute_directrix`` for nonzero forms, certified."""
    field = gens[0].field
    variables = gens[0].variables
    echelon: dict[int, list[Any]] = {}
    for row in _directrix_rows(gens):
        echelon_add(echelon, row, field)
    forms = tuple(row_form(echelon[col], field, variables)
                  for col in sorted(echelon))
    # Certificate: every direction in the cut-out subspace leaves each input
    # invariant under translation.
    for w in _echelon_kernel(echelon, len(variables), field):
        for f in gens:
            if not translation_invariant(f, w):
                raise RuntimeError(
                    "directrix certificate failed: translation moved an initial form"
                )
    return len(echelon), forms


def directrix_of_JO(
    gens: Sequence[Polynomial], frame: Frame
) -> tuple[int, list[Polynomial]]:
    """Directrix of the ideal times the old boundary: e^O and its forms.

    Computed as the directrix ideal of the given generators' initial forms
    plus the initial forms of the old boundary generators, re-minimized.
    """
    if not gens:
        raise InputError("directrix_of_JO needs at least one generator")
    initials = [initial_form(g, g.variables) for g in gens]
    r, forms = compute_directrix(initials, frame)
    return add_old_boundary(r, forms, frame, gens[0].variables)


def add_old_boundary(
    r: int, forms: Sequence[Polynomial], frame: Frame,
    variables: tuple[str, ...],
) -> tuple[int, list[Polynomial]]:
    """Fold the old boundary into a directrix (r, forms): e^O and its forms.

    The old boundary generators' initial forms join the directrix forms and
    the union is re-minimized.  When every one of them is a coordinate form
    c*v (a coordinate generator is its own initial form), the reduced
    echelon basis of the union is its distinct variables, in chart order,
    and e^O is n minus their number.
    """
    old = frame.old_components()
    if not old:
        return len(variables) - r, list(forms)
    field = old[0].generator.field
    names = {coordinate_variable(f) for f in forms}
    names.update(b.variable for b in old)
    if None not in names:
        return len(variables) - len(names), [
            Polynomial.variable(field, variables, v)
            for v in variables if v in names]
    extra = [initial_form(b.generator, b.generator.variables) for b in old]
    rref = row_reduce([form_row(f, variables) for f in list(forms) + extra], field)
    return len(variables) - len(rref), [row_form(row, field, variables) for row in rref]
