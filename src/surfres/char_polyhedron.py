"""Projected characteristic polyhedra and their face invariants.

Given generators and a frame (u; y), the polyhedron collects the points
A/(nu - |B|) of all terms c * u^A * y^B with |B| < nu (nu = order at the
origin) and takes the positive-orthant convex hull.  On top of it:

* ``delta`` and the side face numbers (alpha, beta, gamma, s);
* vertex initial forms, solvability of a vertex, and normalization;
* the vertex-preparation loop with a solving budget and escape detection,
  run modulo a box span on one generator;
* the ``sigma`` invariant of a preparation (the result of ``prepare``),
  computed by iterated face straightening u2 <- u2 + c * u1^m, each
  followed by a re-preparation, with the constraints on c read off the
  terms on the face line.

Points are built on the integer lattice: each point A/(nu - |B|) is scaled
by the lcm L of the nu - |B| that occur, and the hull is taken on those ints.
Vertices are handed out as exact rationals (``Fraction``), as is every other
coordinate; infinity is ``float("inf")``.  Every move x <- x + c * monomial
is ``exact_algebra.translate``.

The steps of the preparation loop read the stored terms on ints.  A box
span scales its weights and bounds by the lcm of their denominators once,
tests each term on ints and keeps the other terms in canonical order.  Over
Q a witness solves a linear system whose rows are read off the vertex
forms' terms.  Over F_p and F_q the candidates are taken in
``itertools.product`` order, and each is screened on the forms read with
U = 1 (see ``_screen``) before it is verified; the screen rejects no
witness, so the first witness is the one an unscreened search finds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from math import comb, lcm
from operator import ge, sub
from typing import Any, Callable, Iterable, Sequence

from .exact_algebra import (
    INF,
    FINITE_EXTENSION,
    FieldDescriptor,
    InputError,
    Polynomial,
    PRIME_FIELD,
    RATIONAL_FUNCTIONS,
    RATIONALS,
    ScopeError,
    ord_at,
    p_th_root,
    q_th_root,
    translate,
)
from .local_frame import Frame, initial_form, row_reduce

MINIMAL = "minimal"
EMPTY = "empty"
BUDGET_EXHAUSTED = "budget_exhausted"

ESCAPE_ANNOTATION = "axis vertex escapes to infinity"

# Largest degree (``RatFunc.degree``) of a slide coefficient over F_p(t)
# that sigma straightens with; beyond it sigma stops uncertified, as at an
# exhausted budget.  A straightening can double the next one's degree (see
# ``tests/test_sigma_exits.py``; its sigma budgets 8, 9 and 10 took 0.18,
# 0.62 and 2.3 s on a 2-CPU machine).  The byte gate and the test suite
# reach degree 31 at most.
MAX_SLIDE_DEGREE = 64

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# F-polyhedra
# ---------------------------------------------------------------------------

def _cross(o: Sequence, a: Sequence, b: Sequence) -> Any:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _canonical_vertices(dim: int, points: Sequence[Sequence]) -> tuple:
    """The hull's vertices, ascending, for rational or int points."""
    pts = sorted(set(points))
    if not pts:
        return ()
    if dim == 0:
        return ()
    if dim == 1:
        return (min(pts),)
    # dominance filter: drop p when some other q <= p coordinatewise; every
    # such q comes before p in sorted order, so p stays when its second
    # coordinate is below that of every earlier point
    kept = []
    for p in pts:
        if not kept or p[1] < kept[-1][1]:
            kept.append(p)
    hull: list = []
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


def _at_point(v: Point, nu: int, ui: Sequence[int],
              yi: Sequence[int]) -> Callable[[tuple[int, ...]], bool]:
    """Whether a term of a generator of order nu has the point v, on ints:
    a_i q_i == p_i (nu - |B|) for v_i = p_i / q_i."""
    ratios = [(i, x.numerator, x.denominator) for i, x in zip(ui, v)]

    def test(vec: tuple[int, ...]) -> bool:
        d = nu - sum([vec[i] for i in yi])
        return d > 0 and all([vec[i] * q == p * d for i, p, q in ratios])
    return test


def _scan(g: Polynomial, frame: Frame) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (A, nu - |B|) of the terms u^A y^B of g with |B| < nu, in
    term order, from one pass that also finds the order nu and refuses a
    generator in the u-ideal."""
    ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
    rows = [(tuple([vec[i] for i in ui]), sum([vec[i] for i in yi]))
            for vec, _ in g.vectors]
    if all(any(a) for a, _ in rows):
        raise InputError("generator lies in the ideal generated by the u-block; "
                         "no valid (u; y) expansion")
    nu = min([sum(a) + b for a, b in rows])
    return [(a, nu - b) for a, b in rows if b < nu]


def _lattice_vertices(dim: int, pairs: Iterable[tuple[tuple[int, ...], int]]) -> tuple[Point, ...]:
    """``_canonical_vertices`` of the points A/d of the pairs (A, d > 0),
    hulled on ints: scaled by the lcm L of the d's, then divided by L."""
    pairs = set(pairs)
    scale = lcm(*{d for _, d in pairs})
    scaled = [tuple([x * (scale // d) for x in a]) for a, d in pairs]
    return tuple(tuple([Fraction(x, scale) for x in v])
                 for v in _canonical_vertices(dim, scaled))


def polyhedron_of(gens: Sequence[Polynomial], frame: Frame) -> FPolyhedron:
    """The projected polyhedron of the generators in the given frame."""
    _check_frame_for_polyhedron(gens, frame)
    return FPolyhedron(frame.e, _lattice_vertices(
        frame.e, [pair for g in gens for pair in _scan(g, frame)]))


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


def _vertex_initial(gens: Sequence[Polynomial], frame: Frame, v: Point) -> VertexInitial:
    """F_i(Y) plus the terms whose polyhedron point equals v, a vertex of
    the polyhedron of gens (the preparation loop hands it no other point)."""
    forms = []
    orders = []
    for g in gens:
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        nu = generator_order(g, frame)
        orders.append(nu)
        at_v = _at_point(v, nu, ui, yi)
        # F_i(Y) and the terms at the vertex, a subset of g's terms in order
        forms.append(Polynomial(g.field, g.variables, tuple([
            (vec, c) for vec, c in g.vectors
            if (sum(vec) == nu and sum([vec[i] for i in yi]) == nu)
            or at_v(vec)])))
    return VertexInitial(v, tuple(forms), tuple(orders), frame)


def _pure_y_part(form: Polynomial, frame: Frame, nu: int) -> Polynomial:
    yi = form.positions(frame.y_block)
    return Polynomial(form.field, form.variables, tuple([
        (vec, c) for vec, c in form.vectors
        if sum(vec) == nu and sum([vec[i] for i in yi]) == nu]))


def _u_power(frame: Frame, v: Point, multiple: int = 1) -> dict[str, int]:
    """The exponents of U^(multiple * v) by u-variable; they must be ints."""
    exps = {}
    for u, coord in zip(frame.u_block, v):
        e, rest = divmod(coord.numerator * multiple, coord.denominator)
        if rest:
            raise InputError("non-integral u-power requested")
        exps[u] = e
    return exps


def _u_vector(form: Polynomial, frame: Frame, v: Point) -> list[int]:
    """The exponent vector of U^v in the form's variables, v integral."""
    uv = [0] * len(form.variables)
    for i, coord in zip(form.positions(frame.u_block), v):
        uv[i] = int(coord)
    return uv


def _translated(F: Polynomial, frame: Frame, v: Point, lam: Sequence[Any]) -> Polynomial:
    """F(Y + lambda * U^v); the moves y_j <- y_j + lambda_j U^v commute."""
    uv = _u_power(frame, v)
    for y_name, coeff in zip(frame.y_block, lam):
        F = translate(F, y_name, coeff, uv)
    return F


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
    """The linear system for lambda over Q, read off the stored terms of
    each form: in F(Y + lambda U^v) the coefficient of u^v y^m (|m| = nu - 1)
    is sum_j lambda_j dF/dy_j at y^m, so a pure term f_B y^B puts B_j f_B
    at column j of the row of y^(B - e_j), and the form's term u^v y^m is
    the right-hand side of the row of y^m.  Its reduced echelon form gives
    lambda, with the unknowns that lead no row left zero; None when the
    system is inconsistent."""
    frame = vi.frame
    r = frame.r
    aug: list[list[Any]] = []
    for form, nu in zip(vi.forms, vi.orders):
        yi = form.positions(frame.y_block)
        uv = _u_vector(form, frame, vi.vertex)
        system: dict[tuple[int, ...], list[Any]] = {}  # y^m -> its row
        for vec, c in form.vectors:
            b = sum([vec[i] for i in yi])
            if b == nu == sum(vec):  # a pure term f_B y^B
                for col, i in enumerate(yi):
                    if vec[i]:
                        m = list(vec)
                        m[i] -= 1
                        row = system.setdefault(tuple(m), [0] * (r + 1))
                        row[col] = vec[i] * c
            elif b == nu - 1 and all(map(ge, vec, uv)):
                row = system.setdefault(tuple(map(sub, vec, uv)), [0] * (r + 1))
                row[r] = c
        aug.extend(system.values())
    lam = [field.zero()] * r
    for row in row_reduce(aug, field):
        lead = next(c for c, x in enumerate(row) if x)  # no row is zero
        if lead == r:
            return None  # inconsistent system
        lam[lead] = field.to_public(row[r])
        # other unknowns in this row stay zero (free choice)
    return lam


def _solve_ratfunc(vi: VertexInitial, field: FieldDescriptor) -> list[Any] | None:
    frame = vi.frame
    if frame.r != 1:
        if _verify_witness(vi, [field.zero()]):
            return [field.zero()]
        raise ScopeError(
            "vertex solvability over F_p(t) is supported for a single y variable"
        )
    p, y, zero = field.characteristic, frame.y_block[0], field.zero()
    lam = None
    for form, nu in zip(vi.forms, vi.orders):
        if _pure_y_part(form, frame, nu).is_zero:
            if not form.is_zero:
                return None
            continue
        # the coefficients of y^nu and of y^(nu - d) U^(d v) in the form
        coefficients = form.coefficient_map()
        c = coefficients.get(tuple(nu if v == y else 0 for v in form.variables), zero)
        if not c:
            return None
        d = p ** _p_adic_valuation(nu, p)
        binom = field.from_int(comb(nu, d) % p)
        exps = {y: nu - d, **_u_power(frame, vi.vertex, d)}
        coeff = coefficients.get(tuple(exps.get(v, 0) for v in form.variables), zero)
        cand = q_th_root(coeff / (binom * c), d, field)
        if cand is None:
            return None
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    return [lam if lam is not None else field.zero()]


def _screen(vi: VertexInitial,
            field: FieldDescriptor) -> Callable[[Sequence[Any]], bool]:
    """A test that every witness passes, on stored values lambda.

    Every term of F_i(Y + lambda U^v) with y-exponent B has the u-exponent
    (nu - |B|) v, so setting U = 1 merges no two of its terms, and
    in_v(f_i) = F_i(Y + lambda U^v) gives in_v(f_i)(U = 1) = F_i(Y + lambda).
    At Y = 0 that reads: F_i(lambda) is the coefficient of u^(nu v) in the
    form, and dF_i/dy_j(lambda) that of u^((nu - 1) v) y_j.
    """
    frame = vi.frame
    zero, to_native = field.native_int(0), field.to_native
    checks = []  # (terms (y-exponents, coefficient) of a polynomial, its value)
    for form, nu in zip(vi.forms, vi.orders):
        yi = form.positions(frame.y_block)
        uv = _u_vector(form, frame, vi.vertex)
        coefficients = dict(form.vectors)
        pure = [(tuple([vec[i] for i in yi]), c) for vec, c in form.vectors
                if sum(vec) == nu == sum([vec[i] for i in yi])]
        checks.append((pure, coefficients.get(tuple([nu * x for x in uv]), zero)))
        for j, i in enumerate(yi):
            slope = [(b[:j] + (b[j] - 1,) + b[j + 1:], field.native_int(b[j]) * c)
                     for b, c in pure if b[j]]
            vec = [(nu - 1) * x for x in uv]
            vec[i] = 1
            checks.append((slope, coefficients.get(tuple(vec), zero)))

    def passes(lam: Sequence[Any]) -> bool:
        for terms, value in checks:
            total = zero
            for b, c in terms:
                for x, e in zip(lam, b):
                    if e:
                        c = c * field.native_power(x, e)
                total = total + c
            if to_native(total) != value:
                return False
        return True
    return passes


def is_solvable(vi: VertexInitial, field: FieldDescriptor) -> tuple[Any, ...] | None:
    """Witness lambda with in_v(f_i) = F_i(Y + lambda U^v), or None.

    None for non-integral vertices.  Complete over finite fields (exhaustive),
    over the rationals (linear extraction), and over F_p(t) for one y variable
    (unique d-th-root extraction); every candidate is verified symbolically.
    Over a finite field the candidates run through ``itertools.product`` of
    the field's elements, and each is first screened on the forms read with
    U = 1 (``_screen``): no witness fails the screen, so the witness returned
    is the first one in that order, as without the screen.
    """
    if any(coord.denominator != 1 for coord in vi.vertex):
        return None
    r = vi.frame.r
    if field.kind in (PRIME_FIELD, FINITE_EXTENSION):
        passes = _screen(vi, field)
        for lam in itertools.product(map(field.to_native, field.elements()),
                                     repeat=r):
            if any(lam) and passes(lam):
                public = tuple(map(field.to_public, lam))
                if _verify_witness(vi, public):
                    return public
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

def _leading_term(F: Polynomial, frame: Frame) -> tuple[tuple[int, ...], Any] | None:
    """The lex-largest y-exponent vector of a pure-Y form and its
    coefficient; None for zero."""
    yi = F.positions(frame.y_block)
    return max(((tuple([vec[i] for i in yi]), c)
                for vec, c in F.coefficient_map().items()),
               key=lambda term: term[0], default=None)


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
    field, variables = out[0].field, out[0].variables
    ui, yi = out[0].positions(frame.u_block), out[0].positions(frame.y_block)
    for i in range(1, len(out)):
        earlier = []
        for j in range(i):
            nu_j = generator_order(out[j], frame)
            initial = initial_form(out[j], out[j].variables)
            lead = _leading_term(_pure_y_part(initial, frame, nu_j), frame)
            if lead is not None:
                earlier.append((*lead, out[j]))
        fuse = 200
        while fuse > 0:
            fuse -= 1
            at_v = _at_point(v, generator_order(out[i], frame), ui, yi)
            target = None
            for vec, c in sorted(
                out[i].coefficient_map().items(),
                key=lambda t: tuple([-t[0][k] for k in yi])
            ):
                if not at_v(vec):
                    continue
                b_vec = tuple([vec[k] for k in yi])
                for le, lc, f_j in earlier:
                    if all(map(ge, b_vec, le)):
                        target = (vec, c, le, lc, f_j)
                        break
                if target:
                    break
            if target is None:
                break
            vec, c, le, lc, f_j = target
            quot = list(vec)
            for k, e in zip(yi, le):
                quot[k] -= e
            out[i] = out[i] - f_j * Polynomial.from_vectors(
                field, variables, {tuple(quot): c / lc})
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

class _OnDemand:
    """A dataclass field holding its value, or a function that computes
    the value the first time the field is read."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            raise AttributeError(self.slot)  # the field has no default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class PreparationResult:
    """The outcome of ``prepare``.

    ``generators`` are the exactly prepared generators.  A run that went on
    modulo a box span (see ``prepare``) holds the exact generators of its
    switch and replays the later entries of ``changes`` on them the first
    time ``generators`` is read, so a caller that reads only the polyhedron
    and the status never builds them.  The constructor also takes the
    generators themselves, and equality compares the replayed ones.
    """

    generators: tuple[Polynomial, ...] = _OnDemand()  # type: ignore[assignment]
    changes: tuple[dict, ...]
    polyhedron: FPolyhedron
    status: str
    escape_annotation: str | None = None
    stable_polyhedron: FPolyhedron | None = None

    @property
    def solved_vertices(self) -> tuple[Point, ...]:
        """The vertex of each solving step, in order, read off ``changes``."""
        return tuple(change["vertex"] for change in self.changes)


# solving steps a one-generator run takes exactly before it may go on
# modulo a box span
_EXACT_STEPS = 1


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
    changes: Sequence[dict], snapshots: Sequence[tuple[Point, ...]]
) -> bool:
    if len(changes) < 3:
        return False
    last = [change["vertex"] for change in changes[-3:]]
    axes = {_axis_of(v) for v in last}
    if len(axes) != 1 or None in axes:
        return False
    axis = axes.pop()
    coords = [v[axis] for v in last]
    if not (coords[0] < coords[1] < coords[2]):
        return False
    return snapshots[-3] == snapshots[-2] == snapshots[-1]


def _replay(gens: Sequence[Polynomial], frame: Frame,
            changes: Sequence[dict]) -> tuple[Polynomial, ...]:
    """The generators after the translations y_j <- y_j - lambda_j u^v of a
    change log."""
    current = tuple(gens)
    for change in changes:
        minus = [-c for c in change["witness"]]
        current = tuple(_translated(g, frame, change["vertex"], minus)
                        for g in current)
    return current


@dataclass(frozen=True)
class _Box:
    """The span J_c of ``prepare``: the terms u^a y^B of a generator of
    order ``order`` with a_i + floor_i * |B| >= order * corner_i for every
    coordinate i.  The test runs on ints formed once: with d the lcm of the
    denominators of floor and corner, ``scale`` is d and ``bounds`` holds
    (floor_i d, order corner_i d) for each coordinate."""

    corner: Point
    floor: Point
    order: int

    def __post_init__(self) -> None:
        d = lcm(*[x.denominator for x in self.floor + self.corner])
        object.__setattr__(self, "scale", d)
        object.__setattr__(self, "bounds", tuple(
            (int(f * d), int(self.order * c * d))
            for f, c in zip(self.floor, self.corner)))

    def reduce(self, g: Polynomial, frame: Frame) -> Polynomial:
        """g with its terms in J_c dropped; the kept terms stay in g's
        canonical order."""
        yi, d = g.positions(frame.y_block), self.scale
        tests = [(i, f, m) for i, (f, m) in zip(g.positions(frame.u_block),
                                                 self.bounds)]
        kept = []
        for term in g.vectors:
            vec = term[0]
            b = sum([vec[i] for i in yi])
            for i, f, m in tests:
                if vec[i] * d + f * b < m:
                    kept.append(term)
                    break
        return Polynomial(g.field, g.variables, tuple(kept))


def _drift_end(solved: Sequence[Point], budget: int) -> Point:
    """Where the vertices ``solved`` (the last one may be the vertex the
    loop examines next) are headed at the end of the budget: their last
    step taken again at each remaining step, scaled up by the ratio of
    the last two steps when it exceeds 1, plus one in each coordinate that
    grows (so that a box with this corner keeps the term of the vertex the
    budget ends on)."""
    step = list(map(sub, solved[-1], solved[-2]))
    ratio = Fraction(1)
    if len(solved) >= 3:
        before = list(map(sub, solved[-2], solved[-3]))
        ratio = max([s / b for s, b in zip(step, before) if b > 0] + [ratio])
    scale = sum(ratio ** k for k in range(1, budget + 2 - len(solved)))
    return tuple(x + s * scale + (1 if s > 0 else 0)
                 for x, s in zip(solved[-1], step))


@dataclass
class _Run:
    """The state of a preparation loop."""

    current: list[Polynomial]
    poly: FPolyhedron  # always the polyhedron of current
    changes: list[dict]
    snapshots: list[tuple[Point, ...]]
    certified: set[Point]
    escape: str | None = None
    stable: FPolyhedron | None = None
    status: str = MINIMAL

    def result(self, generators: Any) -> PreparationResult:
        return PreparationResult(
            generators=generators,
            changes=tuple(self.changes),
            polyhedron=self.poly,
            status=self.status,
            escape_annotation=self.escape,
            stable_polyhedron=self.stable,
        )


def _advance(run: _Run, frame: Frame, budget: int, pause: int | None = None,
             box: _Box | None = None) -> bool:
    """Run the loop on ``run`` until it ends (True, with ``run.status``
    set), or until it would examine a vertex after ``pause`` solving steps
    or a check of the ``box`` fails (False)."""
    field = run.current[0].field
    while True:
        poly = run.poly
        if box is not None and not poly.member(box.corner):
            return False  # check 1
        uncertified = [v for v in poly.vertices if v not in run.certified]
        if poly.is_empty:
            run.status = EMPTY
            return True
        if not uncertified:
            run.status = MINIMAL
            return True
        if len(run.changes) >= budget:
            run.status = BUDGET_EXHAUSTED
            return True
        if len(run.changes) == pause:
            return False
        v = min(uncertified)
        if box is not None and all(map(ge, v, box.corner)):
            return False  # check 2
        normalized = normalize_at_vertex(run.current, frame, v)
        if normalized != run.current:
            run.current = normalized
            run.poly = polyhedron_of(run.current, frame)
            if v not in run.poly.vertices:
                continue
        vi = _vertex_initial(run.current, frame, v)
        lam = is_solvable(vi, field)
        if lam is None:
            run.certified.add(v)
            continue
        minus = [-c for c in lam]
        run.current = [_translated(g, frame, v, minus) for g in run.current]
        if box is not None:
            run.current = [box.reduce(g, frame) for g in run.current]
        run.changes.append({"vertex": v, "witness": lam})
        run.poly = poly = polyhedron_of(run.current, frame)
        run.snapshots.append(
            tuple(w for w in poly.vertices if _axis_of(w) is None))
        if run.escape is None and _detect_escape(run.changes, run.snapshots):
            run.escape = ESCAPE_ANNOTATION
            run.stable = FPolyhedron.from_points(
                poly.dim, [w for w in poly.vertices if _axis_of(w) != _axis_of(v)])


def _run_modulo_a_box(switch: _Run, frame: Frame, budget: int) -> _Run | None:
    """The one-generator run from the state ``switch`` to its end modulo a
    box whose two checks held throughout (see ``prepare``), or None."""
    g = switch.current[0]
    nu = generator_order(g, frame)
    if _pure_y_part(g, frame, nu).is_zero:
        return None
    vs = switch.poly.vertices
    corner = floor = tuple(min(v[i] for v in vs) for i in range(frame.e))
    # the solved vertex and the one the loop examines next: the pause
    # returns only while an uncertified vertex is left
    seen = [change["vertex"] for change in switch.changes] + [
        min(v for v in vs if v not in switch.certified)]
    # a corner from the drift at the switch, then one enlarged by the drift
    # that a failed run saw
    for _ in range(2):
        enlarged = tuple(map(max, corner, _drift_end(seen, budget)))
        if enlarged == corner:
            return None
        corner = enlarged
        box = _Box(corner, floor, nu)
        current = [box.reduce(g, frame) for g in switch.current]
        trial = replace(switch, current=current,
                        poly=polyhedron_of(current, frame),
                        changes=list(switch.changes),
                        snapshots=list(switch.snapshots),
                        certified=set(switch.certified))
        if _advance(trial, frame, budget, box=box):
            return trial
        if len(trial.changes) == len(switch.changes):
            return None  # it failed before a step: no drift to enlarge by
        seen = [change["vertex"] for change in trial.changes]
    return None


def prepare(gens: Sequence[Polynomial], frame: Frame, budget: int = 64) -> PreparationResult:
    """Drive the vertex-preparation loop until minimal, empty, or out of budget.

    Repeatedly normalizes at the lexicographically smallest uncertified
    vertex; when the vertex is solvable the y-block is translated by the
    witness (y_j <- y_j - lambda_j u^v) and the loop restarts.  The budget
    counts solving steps.

    A run on one generator f of order N, where normalization does nothing,
    may spend most of its budget translating terms far from the vertices.
    After one exact solving step (``_EXACT_STEPS``) such a run, if it is
    still going, goes on modulo a box span (the vertex preparation of
    Hironaka, "Characteristic polyhedra of singularities", 1967, as
    Cossart, Jannsen and Saito use it, read modulo terms that cannot reach
    a vertex):

    * Let delta be the componentwise minimum of the polyhedron P at the
      switch, give a term u^a y^B the weight a_i + delta_i |B| in coordinate
      i, and pick a corner c >= delta, c != delta.  J_c is the span of the
      terms whose weight is at least N c_i in *every* coordinate.
    * J_c is stable under the loop: a later translation has its vertex v in
      P_t, which lies in P, so v >= delta, and it turns u^a y^B into terms
      u^(a + k v) y^B' with |B'| = |B| - k, whose weights are no smaller.
      So the generator is reduced modulo J_c at the switch and after every
      translation, and the reduced g_t differs from the exact f_t by an
      element of J_c.  The pure part F(Y) (|B| = N, a = 0) is untouched by
      translations and weighs N delta_i < N c_i where c_i > delta_i, so it
      stays in g_t, which keeps the order N.
    * A term of J_c with |B| < N has a_i >= N c_i - delta_i |B| >=
      c_i (N - |B|), so its point a / (N - |B|) lies in c + R>=0^n.
      Check 1, at every step: c lies in the polyhedron of g_t.  Then those
      points add nothing to it, and it is the polyhedron of f_t.
    * Check 2, before every vertex v is examined: v is not >= c.  Then no
      term of J_c has the point v, so g_t and f_t have the same initial
      form at v and the same witness.  (A vertex of a polyhedron that
      contains c is >= c only when it is c, so check 2 only acts there.)

    The span is cut out by a box, not by a half-space |a| >= N |c|: the
    box's dropped points lie in c + R>=0^n, which check 1 puts inside the
    polyhedron, while a half-space reaches the axes, where it can drop the
    term that carries a vertex (u1^8 in y + u2^2 + u1^5*u2 + u1^8 once the
    loop walks up the u2-axis).  With both checks holding, the reduced run
    takes exactly the steps of the exact loop.  Its corner is where the
    loop is headed at the end of the budget (``_drift_end``), read off the
    solved vertex and the vertex the loop examines next, the least
    uncertified one at the switch, taken as the predicted second point;
    when a check fails the corner is enlarged once by the vertices that run
    solved, and after that (or at once, if it failed before a step) the
    exact loop resumes from the state saved at the switch.  The argument
    above holds for any corner c >= delta with c != delta, so the choice of
    corner, the predicted point included, changes only how far the run
    gets modulo the box, never the steps it takes.  A run that ends modulo
    the box replays its exact generators from the switch on demand (see
    ``PreparationResult``).  Runs on two or more generators stay exact.
    """
    if budget < 1:
        raise InputError("preparation budget must be >= 1")
    run = _Run(list(gens), polyhedron_of(gens, frame), [], [], set())
    if len(gens) == 1 and not _advance(run, frame, budget, pause=_EXACT_STEPS):
        trial = _run_modulo_a_box(run, frame, budget)
        if trial is not None:
            switch, log = run.current, trial.changes[len(run.changes):]
            return trial.result(lambda: _replay(switch, frame, log))
    _advance(run, frame, budget)  # resumes a paused run; a finished one stays
    return run.result(tuple(run.current))


# ---------------------------------------------------------------------------
# sigma: iterated face straightening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaResult:
    value: Fraction | float
    certified: bool
    substitutions: tuple[dict, ...]
    # (alpha, beta, gamma, s) of the side's first face, read off the
    # polyhedron the search starts from (``face_numbers``); not compared
    first_face: tuple = dataclass_field(default=(), compare=False)


def _uni_trim(a: list[Any]) -> list[Any]:
    out = list(a)
    while out and not out[-1]:
        out.pop()
    return out


def _uni_gcd(a: list[Any], b: list[Any], field: FieldDescriptor) -> list[Any]:
    """The monic gcd of two polynomials, coefficients low to high, by
    Euclid's remainders; [] when both are zero."""
    a, b = _uni_trim(a), _uni_trim(b)
    while b:
        rem, inv = a, field.one() / b[-1]
        while len(rem) >= len(b):  # cancel the leading term of rem
            factor, shift = rem[-1] * inv, len(rem) - len(b)
            rem = _uni_trim(rem[:shift] + [
                c - factor * cb for c, cb in zip(rem[shift:-1], b)])
        a, b = b, rem
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
    """(roots found in the field, certified-complete flag) of a polynomial
    of degree at least 1, coefficients low to high and the top one nonzero.

    Over Q sigma hands it only polynomials of degree 1 (see
    ``_face_constraints``), whose root is read off directly.
    """
    if len(a) == 2:
        return [-a[0] / a[1]], True
    if field.kind in (PRIME_FIELD, FINITE_EXTENSION):
        return [x for x in field.elements() if not _uni_eval(a, x, field)], True
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
    """Constraint polynomials (univariate in the slide coefficient c, low to
    high) whose common vanishing straightens the first face of slope -1/m.

    The slide u2 <- u2 + c * u1^m turns a term a * u1^a1 u2^a2 y^B into
    the terms C(a2, k) a c^k u1^(a1 + k m) u2^(a2 - k) y^B, k = 0..a2,
    each of which keeps a1 + m a2.  So only the terms on the face line
    a1 + m a2 = (alpha + m beta)(nu - |B|) reach it, and the constraint of
    a point u^A y^B on that line past the first vertex (a1 > alpha
    (nu - |B|)) holds at c^k the coefficient C(a2, k) a, reduced mod p, of
    the one term of g that the slide moves there with c^k; a k whose
    coefficient vanishes has none.

    On the first face of the generators' polyhedron, with finite inverse
    slope m, the list is never empty, and over Q the gcd of its members
    has degree at most 1.  The face's first vertex (alpha, beta) has
    beta > 0 and is the point of a term a * u1^a1 u2^a2 y^B, with
    a2 = beta d >= 1 for d = nu - |B|.  Alpha is the least abscissa of
    the polyhedron, so every term on the line with this B has u2-exponent
    at most a2, and it reaches the point of u2-exponent j with k = its
    exponent minus j: that point's constraint has degree at most a2 - j.
    The vertex term's k = a2 move, with coefficient a, reaches j = 0, past
    the vertex: a constraint of degree exactly a2.  Over Q its k = 1 move,
    with coefficient a2 a != 0, reaches j = a2 - 1: a constraint of degree
    exactly 1.
    """
    field, zero = gens[0].field, gens[0].field.zero()
    to_native, public, native_int = field.to_native, field.to_public, field.native_int
    line = alpha + m_exp * beta
    constraints: list[list[Any]] = []
    for g in gens:
        nu = generator_order(g, frame)
        (i1, i2), yi = g.positions(frame.u_block), g.positions(frame.y_block)
        buckets: dict[tuple[int, ...], dict[int, Any]] = {}  # c^k coefficients
        for vec, a in g.vectors:
            d = nu - sum([vec[i] for i in yi])
            a1, a2 = vec[i1], vec[i2]
            if d <= 0 or a1 + m_exp * a2 != line * d:
                continue
            for k in range(a2 + 1):
                c = to_native(a * native_int(comb(a2, k)))
                if c and a1 + k * m_exp > alpha * d:
                    moved = list(vec)
                    moved[i1], moved[i2] = a1 + k * m_exp, a2 - k
                    buckets.setdefault(tuple(moved), {})[k] = public(c)
        constraints.extend([bucket.get(k, zero) for k in range(max(bucket) + 1)]
                           for bucket in buckets.values())
    return constraints


def sigma_search(
    prepared: PreparationResult, frame: Frame, side: int, budget: int = 32,
    prepare_budget: int = 64,
) -> SigmaResult:
    """Compute sigma for one side by iterated straightening substitutions.

    ``prepared`` is ``prepare`` of the generators in ``frame``, and its
    polyhedron gives the first face.  While the first face has integral
    inverse slope m and a coefficient c in the field removes its second
    vertex via u2 <- u2 + c*u1^m, apply it to the prepared generators,
    re-prepare, and repeat; sigma is the supremum of the inverse slopes
    seen (at least 1).  The prepared generators are read only when a face
    is about to be straightened.  A straightening that leaves the slope
    unchanged is a scope error after a complete re-preparation; after one
    that ran out of budget the polyhedron compared is not final, and the
    slope read before that straightening is returned, uncertified.  So is
    the slope read before a slide coefficient over F_p(t) whose degree is
    over ``MAX_SLIDE_DEGREE``, without that straightening.  The result
    keeps the face numbers of the first face (``first_face``), which
    ``iota_poly`` reads too.
    """
    if side not in (1, 2):
        raise InputError("side must be 1 or 2")
    if frame.e != 2:
        raise InputError("sigma needs a 2-dimensional u-block")
    work_frame = frame if side == 1 else Frame(
        (frame.u_block[1], frame.u_block[0]), frame.y_block, frame.boundary
    )
    u1, u2 = work_frame.u_block
    first_face = face_numbers(prepared.polyhedron, side)
    alpha, beta, _, s = first_face
    if beta < 1:
        return SigmaResult(Fraction(1), True, (), first_face)
    subs: list[dict] = []
    certified = True
    for _ in range(budget):
        if s == INF or s.denominator != 1 or s < 1:
            break
        m_exp = int(s)
        gens = prepared.generators
        field = gens[0].field
        constraints = _face_constraints(gens, work_frame, m_exp, alpha, beta)
        g = constraints[0]
        for extra in constraints[1:]:
            g = _uni_gcd(g, extra, field)
            if len(g) == 1:
                break
        if len(g) <= 1:
            break  # no common root: the face cannot be straightened further
        roots, roots_certified = _uni_roots(g, field)
        if not roots:
            certified = certified and roots_certified
            break
        c = roots[0]
        if field.kind == RATIONAL_FUNCTIONS and c.degree > MAX_SLIDE_DEGREE:
            certified = False
            break
        subs.append({"variable": u2, "coefficient": c, "exponent": m_exp})
        prepared = prepare([translate(gg, u2, c, {u1: m_exp}) for gg in gens],
                           work_frame, budget=prepare_budget)
        if prepared.status == BUDGET_EXHAUSTED:
            certified = False
        alpha, beta, _, s_new = face_numbers(prepared.polyhedron, 1)
        if not (s_new > s):
            if not certified:  # the polyhedron compared is not final
                break
            raise ScopeError(f"sigma on side {side}: a straightening substitution "
                             "left the first face's inverse slope unchanged")
        s = s_new
    else:  # the budget ran out before the slope settled
        certified = False
    # max keeps INF, which exceeds every Fraction
    return SigmaResult(max(Fraction(1), s), certified, tuple(subs), first_face)
