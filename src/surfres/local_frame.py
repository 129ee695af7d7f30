"""Chart-local coordinate frames, order invariants, ridge and directrix.

A frame splits a chart's ambient variables into a transversal block ``u`` and
a residual block ``y`` and carries the boundary divisors with their history
status (old/new).  On top of it this module computes:

* initial forms and the ``nu_star`` order vector (compared lexicographically
  with infinity padding, so a shorter list dominates its extensions);
* the ridge of a cone (additive generators of the saturated derivative span);
* the directrix (largest linear subspace of the ridge's zero locus), via
  q-th roots over perfect fields and semilinear splitting over F_p(t);
* the directrix of the ideal multiplied by the old boundary components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    Monomial,
    Polynomial,
    RATIONAL_FUNCTIONS,
    RatFunc,
    ScopeError,
    fp_mul,
    fp_trim,
    hasse_derivative,
    ord_at,
    p_th_root,
    substitute_many,
)

OLD = "old"
NEW = "new"

# Largest degree of an initial form whose ridge (hence directrix) is computed
# (beyond it, ScopeError).  The ridge's linear algebra grows steeply with the
# degree: on a 2-CPU VM, analyze of (x+y+z)^8 over Q takes about 1 s,
# (x+y+z)^12 about 6 s and (x+y+z)^20 over a minute.  The test suite needs
# degree 5, the benchmark 3.
MAX_DIRECTRIX_DEGREE = 8


@dataclass(frozen=True)
class BoundaryComponent:
    """A regular divisor through the chart origin, with history status."""

    generator: Polynomial
    status: str
    birth_step: int = 0
    cid: int = -1
    label: int | None = None

    def __post_init__(self) -> None:
        if self.status not in (OLD, NEW):
            raise InputError(f"boundary status must be old/new, got {self.status!r}")
        g = self.generator
        if ord_at(g, g.variables) != 1:
            raise InputError(
                f"boundary generator {g} is not regular at the origin (order != 1)"
            )


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


@dataclass(frozen=True, order=False)
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

    def _cmp(self, other: "NuStar") -> int:
        n = max(len(self.orders), len(other.orders))
        for i in range(n):
            a = self.orders[i] if i < len(self.orders) else INF
            b = other.orders[i] if i < len(other.orders) else INF
            if a != b:
                return -1 if a < b else 1
        return 0

    def __lt__(self, other: "NuStar") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "NuStar") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "NuStar") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "NuStar") -> bool:
        return self._cmp(other) >= 0


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
    degrees = [m.degree(vs) for m, _ in f.terms]
    lo = min(degrees)
    return Polynomial.make(
        f.field, f.variables, {m: c for (m, c), d in zip(f.terms, degrees) if d == lo}
    )


def nu_star(gens: Sequence[Polynomial]) -> NuStar:
    """Sorted list of origin orders of the generators."""
    if not gens:
        raise InputError("nu_star needs at least one generator")
    orders = []
    for g in gens:
        if g.is_zero:
            raise InputError("zero generator in nu_star")
        orders.append(int(ord_at(g, g.variables)))
    return NuStar(tuple(sorted(orders)))


def check_standard_basis_necessary(gens: Sequence[Polynomial]) -> None:
    """Cheap necessary conditions for a caller-asserted standard basis.

    Checks that orders are nondecreasing as given and that no single-term
    initial form of an earlier generator divides every term of a later one.
    """
    orders = []
    for g in gens:
        if g.is_zero:
            raise InputError("zero generator in standard basis")
        orders.append(int(ord_at(g, g.variables)))
    for a, b in zip(orders, orders[1:]):
        if a > b:
            raise InputError("standard basis generators must have nondecreasing order")
    initials = [initial_form(g, g.variables) for g in gens]
    for j, earlier in enumerate(initials):
        if len(earlier.terms) != 1:
            continue
        mono_j = earlier.terms[0][0]
        for i in range(j + 1, len(initials)):
            if all(mono_j.divides(m) for m, _ in initials[i].terms):
                raise InputError(
                    "redundant standard basis: an earlier initial form divides a later one"
                )


def compose_with_old_boundary(gens: Sequence[Polynomial], frame: Frame) -> list[Polynomial]:
    """Multiply every generator by the product of the old boundary generators."""
    old = frame.old_components()
    if not old:
        return list(gens)
    out = []
    for g in gens:
        acc = g
        for b in old:
            acc = acc * b.generator
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# small exact linear algebra (rows are lists of field elements)
# ---------------------------------------------------------------------------

def row_reduce(rows: list[list[Any]], field: FieldDescriptor) -> list[list[Any]]:
    """Reduced row echelon form; zero rows dropped."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[tuple[int, int]] = []  # (row index, col index)
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


def matrix_kernel(rows: list[list[Any]], ncols: int, field: FieldDescriptor) -> list[list[Any]]:
    """Basis of the right kernel of the matrix given by ``rows``."""
    rref = row_reduce(rows, field) if rows else []
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


def _reduce_vector(vec: list[Any], echelon: list[list[Any]], field: FieldDescriptor) -> list[Any]:
    """Reduce a vector against echelon rows (each with a leading 1)."""
    out = list(vec)
    for row in echelon:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None and out[lead]:
            factor = out[lead]
            out = [a - factor * b for a, b in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def _is_homogeneous(f: Polynomial) -> bool:
    if f.is_zero:
        return True
    degs = {m.degree() for m, _ in f.terms}
    return len(degs) == 1


def _derivative_closure(initials: Sequence[Polynomial]) -> dict[int, list[Polynomial]]:
    """Smallest span containing the inputs and stable under Hasse derivatives.

    Returned per total degree as echelon bases (coefficient rows over the
    degree's monomial list).
    """
    field = initials[0].field
    variables = initials[0].variables
    by_degree: dict[int, list[Polynomial]] = {}
    pending: list[Polynomial] = []
    for f in initials:
        if not f.is_zero:
            pending.append(f)

    # Echelon bookkeeping per degree: monomial order + echelon rows.
    monos: dict[int, list[Monomial]] = {}
    rows: dict[int, list[list[Any]]] = {}

    def add(f: Polynomial) -> bool:
        """Insert f into the span; True if it was independent."""
        d = int(f.total_degree())
        mlist = monos.setdefault(d, [])
        tm = f.term_map()
        for m in tm:
            if m not in mlist:
                mlist.append(m)
                for row in rows.get(d, []):
                    row.append(field.zero())
        vec = [tm.get(m, field.zero()) for m in mlist]
        ech = rows.setdefault(d, [])
        red = _reduce_vector(vec, ech, field)
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
        by_degree.setdefault(d, []).append(f)
        return True

    while pending:
        f = pending.pop()
        if f.is_zero or f.is_constant():
            continue
        if not add(f):
            continue
        d = int(f.total_degree())
        # All Hasse derivatives of orders 1 .. d-1 (multi-indices).
        supp = sorted(f.support_variables())

        def gen_orders(idx: int, remaining: int, current: dict[str, int]):
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

    # Rebuild clean echelon bases per degree as polynomials.
    out: dict[int, list[Polynomial]] = {}
    for d, mlist in monos.items():
        basis = []
        for row in rows.get(d, []):
            term_map = {m: c for m, c in zip(mlist, row) if c}
            if term_map:
                basis.append(Polynomial.make(field, variables, term_map))
        if basis:
            out[d] = basis
    return out


def _p_power_degrees(max_degree: int, p: int) -> list[int]:
    if p == 0:
        return [1] if max_degree >= 1 else []
    out = [1]
    q = p
    while q <= max_degree:
        out.append(q)
        q *= p
    return out


def _all_monomials(variables: tuple[str, ...], degree: int) -> list[Monomial]:
    if degree == 0:
        return [Monomial()]
    out = []

    def rec(idx: int, remaining: int, current: dict[str, int]):
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


def _ideal_slice(
    generators: Sequence[Polynomial], degree: int,
    field: FieldDescriptor, variables: tuple[str, ...],
) -> list[Polynomial]:
    """Echelon basis of the degree-d part of the homogeneous ideal."""
    spanning: list[Polynomial] = []
    for g in generators:
        d = int(g.total_degree())
        if d > degree:
            continue
        for m in _all_monomials(variables, degree - d):
            spanning.append(g.monomial_multiple(m))
    if not spanning:
        return []
    monos = _all_monomials(variables, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for f in spanning:
        row = [field.zero()] * len(monos)
        for m, c in f.terms:
            row[index[m]] = c
        rows.append(row)
    basis = []
    for row in row_reduce(rows, field):
        term_map = {m: c for m, c in zip(monos, row) if c}
        basis.append(Polynomial.make(field, variables, term_map))
    return basis


def _in_span(f: Polynomial, basis: Sequence[Polynomial], field: FieldDescriptor) -> bool:
    """Whether f lies in the linear span of the given polynomials."""
    monos: list[Monomial] = []
    for g in list(basis) + [f]:
        for m, _ in g.terms:
            if m not in monos:
                monos.append(m)
    rows = []
    for g in basis:
        tm = g.term_map()
        rows.append([tm.get(m, field.zero()) for m in monos])
    ech = row_reduce(rows, field) if rows else []
    tm = f.term_map()
    vec = _reduce_vector([tm.get(m, field.zero()) for m in monos], ech, field)
    return not any(vec)


def _normalize_sigma_vector(vec: list[Any], field: FieldDescriptor) -> list[Any]:
    """Pick a readable representative: clear F_p(t) denominators, lead with 1."""
    if field.kind != RATIONAL_FUNCTIONS:
        lead = next(c for c in vec if c)
        inv = field.one() / lead
        return [c * inv for c in vec]
    from .exact_algebra import fp_divmod, fp_gcd

    p = field.characteristic
    den_lcm: tuple[int, ...] = (1,)
    for c in vec:
        if c:
            g = fp_gcd(den_lcm, c.den, p)
            den_lcm = fp_mul(fp_divmod(den_lcm, g, p)[0], c.den, p)
    scaled = [c * RatFunc(den_lcm, (1,), p, field.transcendental_name or "t") for c in vec]
    num_gcd: tuple[int, ...] = ()
    for c in scaled:
        if c:
            num_gcd = fp_gcd(num_gcd, c.num, p) if num_gcd else c.num
    if num_gcd and num_gcd != (1,):
        inv = RatFunc((1,), (1,), p) / RatFunc(num_gcd, (1,), p, field.transcendental_name or "t")
        scaled = [c * inv for c in scaled]
    # make the leading coefficient monic in t
    lead = next(c for c in scaled if c)
    if lead.den == (1,) and lead.num and lead.num[-1] != 1:
        unit = RatFunc((lead.num[-1],), (1,), p)
        scaled = [c / unit for c in scaled]
    return scaled


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
    for f in gens:
        if not _is_homogeneous(f):
            raise InputError(f"ridge input is not homogeneous: {f}")
    degree = max(int(f.total_degree()) for f in gens)
    if degree > MAX_DIRECTRIX_DEGREE:
        raise ScopeError(
            f"the directrix of an initial form of degree {degree} is over the "
            f"limit of {MAX_DIRECTRIX_DEGREE} (MAX_DIRECTRIX_DEGREE)")
    closure = _derivative_closure(gens)
    if not closure:
        return []
    p = field.characteristic
    max_degree = max(closure)
    n = len(variables)
    closure_basis = [f for fs in closure.values() for f in fs]

    chosen: list[tuple[int, list[Any]]] = []  # (degree q, coefficient vector)
    for q in _p_power_degrees(max_degree, p):
        basis = _ideal_slice(closure_basis, q, field, variables)
        if not basis:
            continue
        # Coefficients of each basis element on pure q-th powers vs the rest.
        pure = [Monomial.from_dict({v: q}) for v in variables]
        other: list[Monomial] = []
        for f in basis:
            for m, _ in f.terms:
                if m not in pure and m not in other:
                    other.append(m)
        # Kernel of the "non-pure part" map: combinations supported purely.
        constraint_rows = [
            [f.coefficient(m) for f in basis] for m in other
        ]
        kern = matrix_kernel(constraint_rows, len(basis), field)
        candidates = []
        for lam in kern:
            vec = [field.zero()] * n
            for coeff, f in zip(lam, basis):
                if coeff:
                    for i, v in enumerate(variables):
                        vec[i] = vec[i] + coeff * f.coefficient(pure[i])
            if any(vec):
                candidates.append(vec)
        if not candidates:
            continue
        # Reduce candidates modulo (q/q_j)-th Frobenius lifts of chosen sigmas.
        lifted = []
        for qj, cj in chosen:
            power = q // qj
            lifted.append([c ** power for c in cj])
        echelon = row_reduce(lifted, field) if lifted else []
        for vec in candidates:
            red = _reduce_vector(vec, echelon, field)
            lead = next((c for c, x in enumerate(red) if x), None)
            if lead is None:
                continue
            inv = field.one() / red[lead]
            red = [x * inv for x in red]
            chosen.append((q, red))
            echelon = row_reduce(echelon + [red], field)

    out = []
    for q, vec in chosen:
        nvec = _normalize_sigma_vector(vec, field)
        term_map = {
            Monomial.from_dict({v: q}): c for v, c in zip(variables, nvec) if c
        }
        out.append(Polynomial.make(field, variables, term_map))

    # Containment certificate: the derivative closure (hence the inputs) lies
    # in the ideal generated by the additive forms.
    for f in closure_basis:
        d = int(f.total_degree())
        slice_basis = _ideal_slice(out, d, field, variables)
        if not _in_span(f, slice_basis, field):
            raise RuntimeError(
                "ridge certificate failed: closure element outside the additive ideal"
            )
    return out


# ---------------------------------------------------------------------------
# directrix
# ---------------------------------------------------------------------------

def _q_th_root(c: Any, q: int, field: FieldDescriptor) -> Any | None:
    """Inverse of x -> x^q for q a power of the characteristic (or q = 1)."""
    if q == 1:
        return c
    p = field.characteristic
    out = c
    while q > 1:
        out = p_th_root(out, field)
        if out is None:
            return None
        q //= p
    return out


def _ratfunc_semilinear_split(c: RatFunc, q: int) -> list[RatFunc]:
    """Write c in F_p(t) as sum_j t^j * a_j^q; returns [a_0, ..., a_{q-1}].

    Uses c = (num * den^{q-1}) / den^q and the fact that F_p coefficients are
    Frobenius-fixed, so grouping numerator exponents modulo q gives exact
    q-th roots slice by slice.
    """
    p = c.p
    num = fp_mul(c.num, _fp_pow(c.den, q - 1, p), p)
    out = []
    for j in range(q):
        sliced = tuple(num[i] for i in range(j, len(num), q))
        out.append(RatFunc(fp_trim(sliced, p), c.den, p, c.name))
    return out


def _fp_pow(a: tuple[int, ...], e: int, p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = a
    while e > 0:
        if e & 1:
            result = fp_mul(result, base, p)
        base = fp_mul(base, base, p)
        e >>= 1
    return result


def _linear_conditions(sigma_degree: int, vec: list[Any], field: FieldDescriptor) -> list[list[Any]]:
    """Linear conditions over k cutting out the k-points of ker(sigma)."""
    q = sigma_degree
    if q == 1:
        return [list(vec)]
    if field.is_perfect:
        row = [_q_th_root(c, q, field) for c in vec]
        assert all(r is not None for r in row)
        return [row]
    # F_p(t): split every coefficient over the k^q-basis 1, t, ..., t^{q-1}.
    rows: list[list[Any]] = []
    splits = [_ratfunc_semilinear_split(c, q) for c in vec]
    for j in range(q):
        row = [s[j] for s in splits]
        if any(row):
            rows.append(row)
    return rows


def translation_invariant(f: Polynomial, w: Sequence[Any]) -> bool:
    """Whether f(X + T*w) == f(X) identically for the direction vector w."""
    field, vs = f.field, f.variables
    tvar = "__T__"
    ext = vs + (tvar,)
    lift = Polynomial.make(field, ext, dict(f.terms))
    t_poly = Polynomial.variable(field, ext, tvar)
    assignments = {}
    for v, c in zip(vs, w):
        if c:
            assignments[v] = Polynomial.variable(field, ext, v) + t_poly.scale(c)
    shifted = substitute_many(lift, assignments)
    return shifted == lift


def compute_directrix(
    initials: Sequence[Polynomial], frame: Frame
) -> tuple[int, list[Polynomial]]:
    """Largest linear subspace of the ridge's zero locus.

    Returns (r, forms): r independent linear forms cutting out the directrix,
    so e = dim(ambient) - r.  Certified by the translation test on a basis of
    the directrix before returning.
    """
    gens = [f for f in initials if not f.is_zero]
    if not gens:
        return 0, []
    field = gens[0].field
    variables = gens[0].variables
    sigmas = compute_ridge(gens)
    rows: list[list[Any]] = []
    for s in sigmas:
        q = int(s.total_degree())
        vec = [s.coefficient(Monomial.from_dict({v: q})) for v in variables]
        rows.extend(_linear_conditions(q, vec, field))
    rref = row_reduce(rows, field) if rows else []
    r = len(rref)
    forms = []
    for row in rref:
        term_map = {Monomial.from_dict({v: 1}): c for v, c in zip(variables, row) if c}
        forms.append(Polynomial.make(field, variables, term_map))
    # Certificate: every direction in the cut-out subspace leaves each input
    # invariant under translation.
    for w in matrix_kernel(rref, len(variables), field):
        for f in gens:
            if not translation_invariant(f, w):
                raise RuntimeError(
                    "directrix certificate failed: translation moved an initial form"
                )
    return r, forms


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
    the union is re-minimized.
    """
    extra = [initial_form(b.generator, b.generator.variables)
             for b in frame.old_components()]
    if not extra:
        return len(variables) - r, list(forms)
    field = extra[0].field
    rows = []
    for f in list(forms) + extra:
        if int(f.total_degree()) != 1:
            # A boundary initial of degree 1 is guaranteed by regularity; the
            # directrix forms are linear by construction.
            raise InputError("non-linear form while combining directrix with boundary")
        rows.append([f.coefficient(Monomial.from_dict({v: 1})) for v in variables])
    rref = row_reduce(rows, field)
    combined = []
    for row in rref:
        term_map = {Monomial.from_dict({v: 1}): c for v, c in zip(variables, row) if c}
        combined.append(Polynomial.make(field, variables, term_map))
    e_o = len(variables) - len(rref)
    return e_o, combined
