"""Projected characteristic polyhedra and their face invariants.

Given generators and a frame (u; y), the polyhedron collects the points
A/(nu - |B|) of all terms c * u^A * y^B with |B| < nu (nu = order at the
origin) and takes the positive-orthant convex hull.  On top of it:

* ``delta`` and the side face numbers (alpha, beta, gamma, s);
* vertex initial forms, solvability of a vertex, and normalization;
* the vertex-preparation loop with a solving budget and escape detection;
* the ``sigma`` invariant computed by iterated face straightening
  u2 <- u2 + c * u1^m over polynomial translations.

All coordinates are exact rationals; infinity is ``float("inf")``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .exact_algebra import (
    INF,
    FINITE_EXTENSION,
    FieldDescriptor,
    InputError,
    Monomial,
    Polynomial,
    PRIME_FIELD,
    RATIONALS,
    ScopeError,
    hasse_derivative,
    ord_at,
    p_th_root,
    substitute,
)
from .local_frame import Frame, initial_form, row_reduce

MINIMAL = "minimal"
EMPTY = "empty"
BUDGET_EXHAUSTED = "budget_exhausted"

ESCAPE_ANNOTATION = "axis vertex escapes to infinity"

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# F-polyhedra
# ---------------------------------------------------------------------------

def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _canonical_vertices(dim: int, points: Sequence[Point]) -> tuple[Point, ...]:
    pts = sorted(set(points))
    if not pts:
        return ()
    if dim == 0:
        return ()
    if dim == 1:
        return (min(pts),)
    # dominance filter: drop p when some other q <= p coordinatewise
    kept = []
    for p in pts:
        if not any(
            q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts
        ):
            kept.append(p)
    kept.sort()
    hull: list[Point] = []
    for p in kept:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


@dataclass(frozen=True)
class FPolyhedron:
    """Positive-orthant convex hull in dimension 0, 1 or 2, by its vertices."""

    dim: int
    vertices: tuple[Point, ...]

    @staticmethod
    def from_points(dim: int, points: Sequence[Point]) -> "FPolyhedron":
        if dim not in (0, 1, 2):
            raise InputError(f"polyhedron dimension must be 0, 1 or 2, got {dim}")
        return FPolyhedron(dim, _canonical_vertices(dim, points))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def member(self, p: Point) -> bool:
        """Whether the point belongs to the F-subset."""
        if self.is_empty:
            return False
        if self.dim == 1:
            return p[0] >= self.vertices[0][0]
        vs = self.vertices
        if p[0] < vs[0][0]:
            return False
        if p[0] >= vs[-1][0]:
            return p[1] >= vs[-1][1]
        for a, b in zip(vs, vs[1:]):
            if a[0] <= p[0] <= b[0]:
                # boundary height by linear interpolation on the edge
                t = (p[0] - a[0]) / (b[0] - a[0])
                boundary = a[1] + t * (b[1] - a[1])
                return p[1] >= boundary
        return False  # pragma: no cover

    def contains(self, other: "FPolyhedron") -> bool:
        """F-subset containment: every vertex of ``other`` lies in ``self``."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return all(self.member(v) for v in other.vertices)


def delta(poly: FPolyhedron) -> Fraction | float:
    """Minimal coordinate sum over the polyhedron; infinity when empty."""
    if poly.is_empty:
        return INF
    return min(sum(v, Fraction(0)) for v in poly.vertices)


def face_numbers(
    poly: FPolyhedron, side: int
) -> tuple[Fraction | float, Fraction | float, Fraction | float, Fraction | float]:
    """(alpha, beta, gamma, s) of the given side of a 2-dimensional polyhedron.

    Side 1 reads coordinates as given; side 2 swaps them.  alpha is the least
    abscissa, beta the ordinate there, gamma the largest ordinate on the
    delta-face, and -1/s the slope of the first edge (s = infinity when there
    is at most one vertex).  An empty polyhedron gives all four infinite.
    """
    if poly.dim != 2:
        raise InputError("face numbers are defined for 2-dimensional polyhedra only")
    if side not in (1, 2):
        raise InputError("side must be 1 or 2")
    if poly.is_empty:
        return (INF, INF, INF, INF)
    vs = poly.vertices
    if side == 2:
        vs = _canonical_vertices(2, [(v[1], v[0]) for v in vs])
    alpha = vs[0][0]
    beta = vs[0][1]
    d = min(v[0] + v[1] for v in vs)
    gamma = max(v[1] for v in vs if v[0] + v[1] == d)
    if len(vs) < 2:
        s: Fraction | float = INF
    else:
        s = (vs[1][0] - vs[0][0]) / (vs[0][1] - vs[1][1])
    return (alpha, beta, gamma, s)


# ---------------------------------------------------------------------------
# building the polyhedron from generators
# ---------------------------------------------------------------------------

def _check_frame_for_polyhedron(gens: Sequence[Polynomial], frame: Frame) -> None:
    if not gens:
        raise InputError("polyhedron needs at least one generator")
    if frame.e > 2:
        raise InputError(f"polyhedron invariants need |u| <= 2, got {frame.e}")
    for g in gens:
        if g.is_zero:
            raise InputError("zero generator in polyhedron_of")
        for v in frame.variables:
            if v not in g.variables:
                raise InputError(f"frame variable {v!r} missing from generator ring")


def generator_order(g: Polynomial, frame: Frame) -> int:
    return int(ord_at(g, frame.variables))


def _points_of_generator(g: Polynomial, frame: Frame) -> list[Point]:
    nu = generator_order(g, frame)
    uset = frame.u_block
    yset = set(frame.y_block)
    points = []
    in_u_ideal = True
    for m, _ in g.terms:
        b = m.degree(yset)
        a_total = m.degree(set(uset))
        if a_total == 0:
            in_u_ideal = False
        if b < nu:
            denom = nu - b
            points.append(tuple(Fraction(m.exponent(u), denom) for u in uset))
    if in_u_ideal:
        raise InputError(
            "generator lies in the ideal generated by the u-block; "
            "no valid (u; y) expansion"
        )
    return points


def polyhedron_of(gens: Sequence[Polynomial], frame: Frame) -> FPolyhedron:
    """The projected polyhedron of the generators in the given frame."""
    _check_frame_for_polyhedron(gens, frame)
    points: list[Point] = []
    for g in gens:
        points.extend(_points_of_generator(g, frame))
    return FPolyhedron.from_points(frame.e, points)


# ---------------------------------------------------------------------------
# vertex initial forms and solvability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexInitial:
    """Per-generator quasi-homogeneous forms attached to a vertex."""

    vertex: Point
    forms: tuple[Polynomial, ...]
    orders: tuple[int, ...]
    frame: Frame


def _term_point(m: Monomial, nu: int, frame: Frame) -> Point | None:
    b = m.degree(set(frame.y_block))
    if b >= nu:
        return None
    denom = nu - b
    return tuple(Fraction(m.exponent(u), denom) for u in frame.u_block)


def vertex_initial(gens: Sequence[Polynomial], frame: Frame, v: Point) -> VertexInitial:
    """F_i(Y) plus the terms whose polyhedron point equals the vertex v."""
    poly = polyhedron_of(gens, frame)
    if v not in poly.vertices:
        raise InputError(f"{v} is not a vertex of the polyhedron")
    forms = []
    orders = []
    yset = set(frame.y_block)
    for g in gens:
        nu = generator_order(g, frame)
        orders.append(nu)
        term_map: dict[Monomial, Any] = {}
        for m, c in g.terms:
            if m.degree() == nu and m.degree(yset) == nu:
                term_map[m] = c  # the pure-Y initial part F_i(Y)
            else:
                pt = _term_point(m, nu, frame)
                if pt == v:
                    term_map[m] = c
        forms.append(Polynomial.make(g.field, g.variables, term_map))
    return VertexInitial(v, tuple(forms), tuple(orders), frame)


def _pure_y_part(form: Polynomial, frame: Frame, nu: int) -> Polynomial:
    yset = set(frame.y_block)
    return Polynomial.make(
        form.field,
        form.variables,
        {m: c for m, c in form.terms if m.degree(yset) == nu and m.degree() == nu},
    )


def _u_power_monomial(frame: Frame, v: Point, multiple: int = 1) -> Monomial:
    exps = {}
    for u, coord in zip(frame.u_block, v):
        e = coord * multiple
        if e.denominator != 1:
            raise InputError("non-integral u-power requested")
        if e:
            exps[u] = int(e)
    return Monomial.from_dict(exps)


def _translated(F: Polynomial, frame: Frame, v: Point, lam: Sequence[Any]) -> Polynomial:
    """F(Y + lambda * U^v) via simultaneous substitution."""
    out = F
    uv = _u_power_monomial(frame, v)
    for y_name, coeff in zip(frame.y_block, lam):
        if coeff:
            shift = Polynomial.variable(F.field, F.variables, y_name) + Polynomial.make(
                F.field, F.variables, {uv: coeff}
            )
            out = substitute(out, y_name, shift)
    return out


def _verify_witness(vi: VertexInitial, lam: Sequence[Any]) -> bool:
    for form, nu in zip(vi.forms, vi.orders):
        F = _pure_y_part(form, vi.frame, nu)
        if _translated(F, vi.frame, vi.vertex, lam) != form:
            return False
    return True


def _p_adic_valuation(n: int, p: int) -> int:
    out = 0
    while n % p == 0:
        n //= p
        out += 1
    return out


def _solve_char0(vi: VertexInitial, field: FieldDescriptor) -> list[Any] | None:
    frame = vi.frame
    r = frame.r
    rows: list[list[Any]] = []
    rhs: list[Any] = []
    uv = _u_power_monomial(frame, vi.vertex)
    for form, nu in zip(vi.forms, vi.orders):
        F = _pure_y_part(form, frame, nu)
        partials = [hasse_derivative(F, {y: 1}) for y in frame.y_block]
        # match coefficients of u^v * y^B over all |B| = nu - 1
        monos = set()
        for dF in partials:
            for m, _ in dF.terms:
                monos.add(m)
        for m, _ in form.terms:
            if m.degree(set(frame.y_block)) == nu - 1:
                stripped = m.as_dict()
                for u, e in uv.exps:
                    if stripped.get(u, 0) < e:
                        break
                    stripped[u] -= e
                else:
                    monos.add(Monomial.from_dict(stripped))
        for m in sorted(monos, key=lambda mm: mm.exps):
            row = [dF.coefficient(m) for dF in partials]
            target = form.coefficient(m.mul(uv))
            if any(row) or target:
                rows.append(row)
                rhs.append(target)
    # solve rows * lam = rhs by elimination on the augmented matrix
    aug = [row + [b] for row, b in zip(rows, rhs)]
    rref = row_reduce(aug, field) if aug else []
    lam = [field.zero()] * r
    for row in rref:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if lead == r:
            return None  # inconsistent system
        lam[lead] = row[r]
        # other unknowns in this row stay zero (free choice)
    return lam


def _solve_ratfunc(vi: VertexInitial, field: FieldDescriptor) -> list[Any] | None:
    frame = vi.frame
    if frame.r != 1:
        for lam0 in ([field.zero()],):
            if _verify_witness(vi, lam0):
                return lam0
        raise ScopeError(
            "vertex solvability over F_p(t) is supported for a single y variable"
        )
    p = field.characteristic
    y_name = frame.y_block[0]
    lam = None
    for form, nu in zip(vi.forms, vi.orders):
        F = _pure_y_part(form, frame, nu)
        if F.is_zero:
            if not form.is_zero:
                return None
            continue
        c = F.coefficient(Monomial.from_dict({y_name: nu}))
        if not c:
            return None
        a = _p_adic_valuation(nu, p)
        d = p ** a
        binom = field.from_int(_binomial_mod(nu, d, p))
        target_mono = Monomial.from_dict({y_name: nu - d}).mul(
            _u_power_monomial(frame, vi.vertex, d)
        )
        coeff = form.coefficient(target_mono)
        lam_d = coeff / (binom * c)
        cand = lam_d
        for _ in range(a):
            root = p_th_root(cand, field)
            if root is None:
                return None
            cand = root
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    return [lam if lam is not None else field.zero()]


def _binomial_mod(n: int, k: int, p: int) -> int:
    # Lucas reduction of C(n, k) modulo p
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        num = den = 1
        for i in range(kd):
            num = num * (nd - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return out


def is_solvable(vi: VertexInitial, field: FieldDescriptor) -> tuple[Any, ...] | None:
    """Witness lambda with in_v(f_i) = F_i(Y + lambda U^v), or None.

    None for non-integral vertices.  Complete over finite fields (exhaustive),
    over the rationals (linear extraction), and over F_p(t) for one y variable
    (unique d-th-root extraction); every candidate is verified symbolically.
    """
    if any(coord.denominator != 1 for coord in vi.vertex):
        return None
    r = vi.frame.r
    if field.kind in (PRIME_FIELD, FINITE_EXTENSION):
        if field.kind == PRIME_FIELD:
            elements = [field.from_int(i) for i in range(field.characteristic)]
        else:
            p = field.characteristic
            deg = len(field.modulus or ()) - 1
            elements = []
            for combo in itertools.product(range(p), repeat=deg):
                from .exact_algebra import Fq

                elements.append(
                    Fq(tuple(combo), p, field.modulus, field.generator_name or "s")
                )
        for lam in itertools.product(elements, repeat=r):
            if any(lam) and _verify_witness(vi, lam):
                return tuple(lam)
        return None
    if field.kind == RATIONALS:
        lam = _solve_char0(vi, field)
    else:
        lam = _solve_ratfunc(vi, field)
    if lam is None or not any(lam):
        return None
    return tuple(lam) if _verify_witness(vi, lam) else None


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _leading_exponent(F: Polynomial, frame: Frame) -> tuple[int, ...] | None:
    """Lex-largest y-exponent vector of a pure-Y form; None for zero."""
    if F.is_zero:
        return None
    best = None
    for m, _ in F.terms:
        vec = tuple(m.exponent(y) for y in frame.y_block)
        if best is None or vec > best:
            best = vec
    return best


def normalize_at_vertex(
    gens: Sequence[Polynomial], frame: Frame, v: Point
) -> list[Polynomial]:
    """Remove vertex terms whose y-exponent is reachable from earlier leaders.

    For i >= 2, any term of f_i contributing to the vertex v whose y-exponent
    dominates the leading exponent of an earlier initial form F_j is cancelled
    by subtracting the matching u^A y^(B - LE_j) multiple of f_j.
    """
    out = list(gens)
    if len(out) < 2:
        return out
    field = out[0].field
    yvars = frame.y_block
    for i in range(1, len(out)):
        earlier = []
        for j in range(i):
            nu_j = generator_order(out[j], frame)
            initial = initial_form(out[j], out[j].variables)
            F_j = _pure_y_part(initial, frame, nu_j)
            le = _leading_exponent(F_j, frame)
            if le is not None:
                lc = F_j.coefficient(
                    Monomial.from_dict({y: e for y, e in zip(yvars, le) if e})
                )
                earlier.append((le, lc, out[j]))
        fuse = 200
        while fuse > 0:
            fuse -= 1
            nu_i = generator_order(out[i], frame)
            target = None
            for m, c in sorted(
                out[i].terms,
                key=lambda mc: tuple(-mc[0].exponent(y) for y in yvars),
            ):
                if _term_point(m, nu_i, frame) != v:
                    continue
                b_vec = tuple(m.exponent(y) for y in yvars)
                for le, lc, f_j in earlier:
                    if all(bb >= ll for bb, ll in zip(b_vec, le)):
                        target = (m, c, le, lc, f_j)
                        break
                if target:
                    break
            if target is None:
                break
            m, c, le, lc, f_j = target
            quot_exps = m.as_dict()
            for y, e in zip(yvars, le):
                if e:
                    quot_exps[y] = quot_exps.get(y, 0) - e
            multiplier = Monomial.from_dict(quot_exps)
            out[i] = out[i] - f_j.monomial_multiple(multiplier, c / lc)
            if out[i].is_zero:
                raise InputError(
                    "normalization cancelled a generator completely; "
                    "the supplied generators are not a standard basis"
                )
        else:
            raise ScopeError(
                "normalization did not terminate within 200 reduction steps")
    return out


# ---------------------------------------------------------------------------
# preparation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparationResult:
    generators: tuple[Polynomial, ...]
    changes: tuple[dict, ...]
    polyhedron: FPolyhedron
    status: str
    solved_vertices: tuple[Point, ...]
    escape_annotation: str | None = None
    stable_polyhedron: FPolyhedron | None = None


def _axis_of(v: Point) -> int | None:
    """0 for points on the first axis (second coord 0), 1 for the second."""
    if len(v) != 2:
        return None
    if v[1] == 0 and v[0] != 0:
        return 0
    if v[0] == 0 and v[1] != 0:
        return 1
    return None


def _detect_escape(
    solved: Sequence[Point], snapshots: Sequence[tuple[Point, ...]]
) -> bool:
    if len(solved) < 3:
        return False
    last = solved[-3:]
    axes = {_axis_of(v) for v in last}
    if len(axes) != 1 or None in axes:
        return False
    axis = axes.pop()
    coords = [v[axis] for v in last]
    if not (coords[0] < coords[1] < coords[2]):
        return False
    return snapshots[-3] == snapshots[-2] == snapshots[-1]


def prepare(gens: Sequence[Polynomial], frame: Frame, budget: int = 64) -> PreparationResult:
    """Drive the vertex-preparation loop until minimal, empty, or out of budget.

    Repeatedly normalizes at the lexicographically smallest uncertified
    vertex; when the vertex is solvable the y-block is translated by the
    witness (y_j <- y_j - lambda_j u^v) and the loop restarts.  The budget
    counts solving steps.
    """
    if budget < 1:
        raise InputError("preparation budget must be >= 1")
    field = gens[0].field
    current = list(gens)
    changes: list[dict] = []
    solved: list[Point] = []
    snapshots: list[tuple[Point, ...]] = []
    certified: set[Point] = set()
    escape = None
    stable = None
    status = MINIMAL
    while True:
        poly = polyhedron_of(current, frame)
        if poly.is_empty:
            status = EMPTY
            break
        uncertified = [v for v in poly.vertices if v not in certified]
        if not uncertified:
            status = MINIMAL
            break
        v = min(uncertified)
        normalized = normalize_at_vertex(current, frame, v)
        if normalized != current:
            current = normalized
            new_poly = polyhedron_of(current, frame)
            if v not in new_poly.vertices:
                continue
        vi = vertex_initial(current, frame, v)
        lam = is_solvable(vi, field)
        if lam is None:
            certified.add(v)
            continue
        uv = _u_power_monomial(frame, v)
        for y_name, coeff in zip(frame.y_block, lam):
            if coeff:
                replacement = Polynomial.variable(field, current[0].variables, y_name) - (
                    Polynomial.make(field, current[0].variables, {uv: coeff})
                )
                current = [substitute(g, y_name, replacement) for g in current]
        changes.append({"vertex": v, "witness": lam})
        solved.append(v)
        after = polyhedron_of(current, frame)
        snapshots.append(
            tuple(w for w in after.vertices if _axis_of(w) is None)
        )
        if escape is None and _detect_escape(solved, snapshots):
            escape = ESCAPE_ANNOTATION
            stable = FPolyhedron.from_points(
                after.dim, [w for w in after.vertices if _axis_of(w) != _axis_of(v)]
            )
        if len(solved) >= budget:
            poly = polyhedron_of(current, frame)
            if poly.is_empty:
                status = EMPTY
            else:
                remaining = [w for w in poly.vertices if w not in certified]
                status = BUDGET_EXHAUSTED if remaining else MINIMAL
            break
    final_poly = polyhedron_of(current, frame)
    return PreparationResult(
        generators=tuple(current),
        changes=tuple(changes),
        polyhedron=final_poly,
        status=status,
        solved_vertices=tuple(solved),
        escape_annotation=escape,
        stable_polyhedron=stable,
    )


# ---------------------------------------------------------------------------
# sigma: iterated face straightening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaResult:
    value: Fraction | float
    certified: bool
    substitutions: tuple[dict, ...]
    generators: tuple[Polynomial, ...]


def _uni_coeffs(g: Polynomial, var: str) -> list[Any]:
    """Coefficients of a univariate polynomial (in ``var``), low to high."""
    deg = 0
    for m, _ in g.terms:
        deg = max(deg, m.exponent(var))
    out = [g.field.zero()] * (deg + 1)
    for m, c in g.terms:
        e = m.exponent(var)
        rest = {vv: ee for vv, ee in m.exps if vv != var}
        if rest:
            raise InputError("constraint polynomial is not univariate")
        out[e] = out[e] + c
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _uni_trim(a: list[Any]) -> list[Any]:
    out = list(a)
    while out and not out[-1]:
        out.pop()
    return out


def _uni_divmod(a: list[Any], b: list[Any], field: FieldDescriptor) -> tuple[list[Any], list[Any]]:
    b = _uni_trim(b)
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    quot = [field.zero()] * max(0, len(rem) - len(b) + 1)
    inv = field.one() / b[-1]
    while len(_uni_trim(rem)) >= len(b):
        rem = _uni_trim(rem)
        shift = len(rem) - len(b)
        factor = rem[-1] * inv
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * cb
        rem.pop()
    return _uni_trim(quot), _uni_trim(rem)


def _uni_gcd(a: list[Any], b: list[Any], field: FieldDescriptor) -> list[Any]:
    a, b = _uni_trim(a), _uni_trim(b)
    while b:
        a, b = b, _uni_divmod(a, b, field)[1]
    if a:
        inv = field.one() / a[-1]
        a = [c * inv for c in a]
    return a


def _uni_eval(a: list[Any], x: Any, field: FieldDescriptor) -> Any:
    out = field.zero()
    for c in reversed(a):
        out = out * x + c
    return out


def _uni_roots(a: list[Any], field: FieldDescriptor) -> tuple[list[Any], bool]:
    """(roots found in the field, certified-complete flag)."""
    a = _uni_trim(a)
    if not a:
        raise InputError("zero constraint polynomial has every root")
    if len(a) == 1:
        return [], True
    if field.kind == PRIME_FIELD:
        roots = [
            field.from_int(i)
            for i in range(field.characteristic)
            if not _uni_eval(a, field.from_int(i), field)
        ]
        return roots, True
    if field.kind == FINITE_EXTENSION:
        from .exact_algebra import Fq

        p = field.characteristic
        deg = len(field.modulus or ()) - 1
        roots = []
        for combo in itertools.product(range(p), repeat=deg):
            x = Fq(tuple(combo), p, field.modulus, field.generator_name or "s")
            if not _uni_eval(a, x, field):
                roots.append(x)
        return roots, True
    if field.kind == RATIONALS:
        # rational root theorem on the denominator-cleared polynomial
        from math import lcm

        denlcm = 1
        for c in a:
            denlcm = lcm(denlcm, c.denominator)
        ints = [int(c * denlcm) for c in a]
        while ints and ints[0] == 0:
            ints = ints[1:]  # factor out X: X = 0 handled below
        roots = []
        if not _uni_eval(a, Fraction(0), field):
            roots.append(Fraction(0))
        if ints:
            a0, an = abs(ints[0]), abs(ints[-1])

            def divisors(n: int) -> list[int]:
                out = []
                d = 1
                while d * d <= n:
                    if n % d == 0:
                        out.append(d)
                        out.append(n // d)
                    d += 1
                return sorted(set(out))

            for num in divisors(a0):
                for den in divisors(an):
                    for sign in (1, -1):
                        cand = Fraction(sign * num, den)
                        if cand not in roots and not _uni_eval(a, cand, field):
                            roots.append(cand)
        return sorted(roots), True
    # F_p(t): linear factors and p-th-power-of-linear detection only.
    certified = True
    roots: list[Any] = []
    work = list(a)
    p = field.characteristic
    while len(work) > 2:
        # strip a p-th-root layer when every exponent is divisible by p
        if all(i % p == 0 or not c for i, c in enumerate(work)):
            stripped = []
            ok = True
            for i in range(0, len(work), p):
                root = p_th_root(work[i], field)
                if root is None:
                    ok = False
                    break
                stripped.append(root)
            if ok:
                work = _uni_trim(stripped)
                continue
        certified = False
        break
    if len(work) == 2:
        roots.append(-work[0] / work[1])
    elif len(work) > 2:
        certified = False
    return roots, certified


def _face_constraints(
    gens: Sequence[Polynomial], frame: Frame, m_exp: int,
    alpha: Fraction, beta: Fraction,
) -> list[list[Any]]:
    """Constraint polynomials (univariate in the slide coefficient) whose
    common vanishing straightens the first face of slope -1/m."""
    field = gens[0].field
    cvar = "__C__"
    u1, u2 = frame.u_block
    constraints: list[list[Any]] = []
    for g in gens:
        ext = g.variables + (cvar,)
        lifted = Polynomial.make(field, ext, dict(g.terms))
        shift = Polynomial.variable(field, ext, u2) + Polynomial.make(
            field, ext, {Monomial.from_dict({cvar: 1, u1: m_exp}): field.one()}
        )
        moved = substitute(lifted, u2, shift)
        nu = generator_order(g, frame)
        # collect coefficient polynomials in __C__ per (A, B) monomial
        buckets: dict[Monomial, dict[Monomial, Any]] = {}
        for m, c in moved.terms:
            cexp = m.exponent(cvar)
            rest = Monomial.from_dict({vv: ee for vv, ee in m.exps if vv != cvar})
            bucket = buckets.setdefault(rest, {})
            key = Monomial.from_dict({cvar: cexp})
            bucket[key] = bucket.get(key, field.zero()) + c
        for rest, bucket in buckets.items():
            pt = _term_point(rest, nu, frame)
            if pt is None:
                continue
            on_line = pt[0] / m_exp + pt[1] == alpha / m_exp + beta
            if on_line and pt[0] > alpha:
                poly_c = Polynomial.make(field, (cvar,), bucket)
                constraints.append(_uni_coeffs(poly_c, cvar))
    return constraints


def sigma_search(
    gens: Sequence[Polynomial], frame: Frame, side: int, budget: int = 32,
    prepare_budget: int = 64,
) -> SigmaResult:
    """Compute sigma for one side by iterated straightening substitutions.

    Starting from prepared generators, while the first face has integral
    inverse slope m and a coefficient c in the field removes the second
    vertex via u2 <- u2 + c*u1^m, apply it, re-prepare, and repeat; sigma is
    the supremum of the inverse slopes seen (at least 1).
    """
    if side not in (1, 2):
        raise InputError("side must be 1 or 2")
    if frame.e != 2:
        raise InputError("sigma needs a 2-dimensional u-block")
    work_frame = frame if side == 1 else Frame(
        (frame.u_block[1], frame.u_block[0]), frame.y_block, frame.boundary
    )
    field = gens[0].field
    current = list(gens)
    subs: list[dict] = []
    certified = True
    poly = polyhedron_of(current, work_frame)
    _, beta, _, s = face_numbers(poly, 1)
    if beta < 1:
        return SigmaResult(Fraction(1), True, (), tuple(current))
    for _ in range(budget):
        poly = polyhedron_of(current, work_frame)
        alpha, beta, _, s = face_numbers(poly, 1)
        if s == INF:
            return SigmaResult(INF, certified, tuple(subs), tuple(current))
        if s.denominator != 1 or s < 1:
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs), tuple(current))
        m_exp = int(s)
        constraints = _face_constraints(current, work_frame, m_exp, alpha, beta)
        if not constraints:
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs), tuple(current))
        g = constraints[0]
        for extra in constraints[1:]:
            g = _uni_gcd(g, extra, field)
            if len(g) == 1:
                break
        g = _uni_trim(g)
        if len(g) <= 1:
            # no common root: the face cannot be straightened further
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs), tuple(current))
        roots, roots_certified = _uni_roots(g, field)
        if not roots:
            return SigmaResult(
                max(Fraction(1), s), certified and roots_certified, tuple(subs), tuple(current)
            )
        c = roots[0]
        u1, u2 = work_frame.u_block
        shift = Polynomial.variable(field, current[0].variables, u2) + Polynomial.make(
            field, current[0].variables, {Monomial.from_dict({u1: m_exp}): c}
        )
        current = [substitute(gg, u2, shift) for gg in current]
        subs.append({"variable": u2, "coefficient": c, "exponent": m_exp})
        prep = prepare(current, work_frame, budget=prepare_budget)
        current = list(prep.generators)
        if prep.status == BUDGET_EXHAUSTED:
            certified = False
        new_poly = polyhedron_of(current, work_frame)
        _, _, _, s_new = face_numbers(new_poly, 1)
        if not (s_new > s):
            raise RuntimeError("straightening substitution failed to increase s")
    poly = polyhedron_of(current, work_frame)
    _, _, _, s = face_numbers(poly, 1)
    return SigmaResult(max(Fraction(1), s) if s != INF else INF, False, tuple(subs), tuple(current))


def sigma(
    gens: Sequence[Polynomial], frame: Frame, side: int, budget: int = 32
) -> Fraction | float:
    return sigma_search(gens, frame, side, budget).value


# ---------------------------------------------------------------------------
# in_delta
# ---------------------------------------------------------------------------

def in_delta(
    gens: Sequence[Polynomial], frame: Frame, delta_value: Fraction
) -> list[Polynomial]:
    """Per-generator sums of terms minimizing |B| + |A| / delta."""
    if delta_value == INF:
        raise InputError("in_delta needs a finite delta")
    out = []
    uset = set(frame.u_block)
    yset = set(frame.y_block)
    for g in gens:
        vals = []
        for m, _ in g.terms:
            vals.append(m.degree(yset) + Fraction(m.degree(uset), 1) / delta_value)
        lo = min(vals)
        out.append(
            Polynomial.make(
                g.field,
                g.variables,
                {m: c for (m, c), val in zip(g.terms, vals) if val == lo},
            )
        )
    return out
