"""Projected characteristic polyhedra and their face invariants.

Given generators and a frame (u; y), the polyhedron collects the points
A/(nu - |B|) of all terms c * u^A * y^B with |B| < nu (nu = order at the
origin) and takes the positive-orthant convex hull.  On top of it:

* ``delta`` and the side face numbers (alpha, beta, gamma, s);
* vertex initial forms, solvability of a vertex, and normalization;
* the vertex-preparation loop with a solving budget and escape detection,
  run modulo a box span on one generator;
* the ``sigma`` invariant computed by iterated face straightening
  u2 <- u2 + c * u1^m over polynomial translations.

All coordinates are exact rationals; infinity is ``float("inf")``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, lcm
from operator import add, ge, sub
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
    q_th_root,
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
    # dominance filter: drop p when some other q <= p coordinatewise; every
    # such q comes before p in sorted order, so p stays when its second
    # coordinate is below that of every earlier point
    kept = []
    for p in pts:
        if not kept or p[1] < kept[-1][1]:
            kept.append(p)
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


def _point(vec: tuple[int, ...], nu: int, ui: Sequence[int],
           yi: Sequence[int]) -> Point | None:
    """The point A/(nu - |B|) of the term u^A y^B with exponent vector vec
    (u and y at the positions ui and yi) of a generator of order nu; None
    when |B| >= nu."""
    b = sum([vec[i] for i in yi])
    if b >= nu:
        return None
    return tuple([Fraction(vec[i], nu - b) for i in ui])


def _points_of_generator(g: Polynomial, frame: Frame) -> list[Point]:
    ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
    if all(any(vec[i] for i in ui) for vec, _ in g.vectors):
        raise InputError(
            "generator lies in the ideal generated by the u-block; "
            "no valid (u; y) expansion"
        )
    nu = generator_order(g, frame)
    points = [_point(vec, nu, ui, yi) for vec, _ in g.vectors]
    return [pt for pt in points if pt is not None]


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
    """``_point`` of a term given by its monomial."""
    b = m.degree(set(frame.y_block))
    if b >= nu:
        return None
    denom = nu - b
    return tuple(Fraction(m.exponent(u), denom) for u in frame.u_block)


def vertex_initial(gens: Sequence[Polynomial], frame: Frame, v: Point) -> VertexInitial:
    """F_i(Y) plus the terms whose polyhedron point equals the vertex v."""
    if v not in polyhedron_of(gens, frame).vertices:
        raise InputError(f"{v} is not a vertex of the polyhedron")
    return _vertex_initial(gens, frame, v)


def _vertex_initial(gens: Sequence[Polynomial], frame: Frame, v: Point) -> VertexInitial:
    """``vertex_initial`` at a point already known to be a vertex."""
    forms = []
    orders = []
    for g in gens:
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        nu = generator_order(g, frame)
        orders.append(nu)
        forms.append(Polynomial.from_vectors(g.field, g.variables, {
            vec: c for vec, c in g.vectors
            # the pure-Y initial part F_i(Y), and the terms at the vertex
            if (sum(vec) == nu and sum([vec[i] for i in yi]) == nu)
            or _point(vec, nu, ui, yi) == v}))
    return VertexInitial(v, tuple(forms), tuple(orders), frame)


def _pure_y_part(form: Polynomial, frame: Frame, nu: int) -> Polynomial:
    yi = form.positions(frame.y_block)
    return Polynomial.from_vectors(form.field, form.variables, {
        vec: c for vec, c in form.vectors
        if sum(vec) == nu and sum([vec[i] for i in yi]) == nu})


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
    zero = field.zero()
    for form, nu in zip(vi.forms, vi.orders):
        yi = form.positions(frame.y_block)
        uv = [0] * len(form.variables)  # the exponent vector of u^v
        for i, coord in zip(form.positions(frame.u_block), vi.vertex):
            uv[i] = int(coord)
        F = _pure_y_part(form, frame, nu)
        partials = [hasse_derivative(F, {y: 1}).coefficient_map()
                    for y in frame.y_block]
        targets = form.coefficient_map()
        # match coefficients of u^v * y^B over all |B| = nu - 1
        monos = {m for dF in partials for m in dF}
        for vec in targets:
            if sum([vec[i] for i in yi]) == nu - 1 and all(map(ge, vec, uv)):
                monos.add(tuple(map(sub, vec, uv)))
        for m in sorted(monos):
            row = [dF.get(m, zero) for dF in partials]
            target = targets.get(tuple(map(add, m, uv)), zero)
            if any(row) or target:
                rows.append(row)
                rhs.append(target)
    # solve rows * lam = rhs by elimination on the augmented matrix
    aug = [row + [b] for row, b in zip(rows, rhs)]
    rref = row_reduce(aug, field)
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
        binom = field.from_int(comb(nu, d) % p)
        coeff = form.coefficient(Monomial.from_dict({
            y_name: nu - d, **_u_power_monomial(frame, vi.vertex, d).as_dict()}))
        cand = q_th_root(coeff / (binom * c), d, field)
        if cand is None:
            return None
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    return [lam if lam is not None else field.zero()]


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
        for lam in itertools.product(field.elements(), repeat=r):
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
            nu_i = generator_order(out[i], frame)
            target = None
            for vec, c in sorted(
                out[i].coefficient_map().items(),
                key=lambda t: tuple([-t[0][k] for k in yi])
            ):
                if _point(vec, nu_i, ui, yi) != v:
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
    solved_vertices: tuple[Point, ...]
    escape_annotation: str | None = None
    stable_polyhedron: FPolyhedron | None = None


# solving steps a one-generator run takes exactly before it may go on
# modulo a box span
_EXACT_STEPS = 2


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
    coordinate i."""

    corner: Point
    floor: Point
    order: int

    def reduce(self, g: Polynomial, frame: Frame) -> Polynomial:
        """g with its terms in J_c dropped."""
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        # the weights and bounds times a common denominator, as ints
        d = lcm(*[x.denominator for x in self.floor + self.corner])
        bounds = [(i, int(f * d), int(self.order * c * d))
                  for i, f, c in zip(ui, self.floor, self.corner)]
        kept = {}
        for vec, c in g.vectors:
            b = sum([vec[i] for i in yi])
            if not all(vec[i] * d + f * b >= m for i, f, m in bounds):
                kept[vec] = c
        return Polynomial.from_vectors(g.field, g.variables, kept)


def _drift_end(solved: Sequence[Point], budget: int) -> Point:
    """Where the solved vertices are headed at the end of the budget: their
    last step taken again at each remaining step, scaled up by the ratio of
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
    solved: list[Point]
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
            solved_vertices=tuple(self.solved),
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
        if len(run.solved) >= budget:
            run.status = BUDGET_EXHAUSTED
            return True
        if len(run.solved) == pause:
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
        run.solved.append(v)
        run.poly = poly = polyhedron_of(run.current, frame)
        run.snapshots.append(
            tuple(w for w in poly.vertices if _axis_of(w) is None))
        if run.escape is None and _detect_escape(run.solved, run.snapshots):
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
    seen = switch.solved
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
                        changes=list(switch.changes), solved=list(switch.solved),
                        snapshots=list(switch.snapshots),
                        certified=set(switch.certified))
        if _advance(trial, frame, budget, box=box):
            return trial
        seen = trial.solved
    return None


def prepare(gens: Sequence[Polynomial], frame: Frame, budget: int = 64) -> PreparationResult:
    """Drive the vertex-preparation loop until minimal, empty, or out of budget.

    Repeatedly normalizes at the lexicographically smallest uncertified
    vertex; when the vertex is solvable the y-block is translated by the
    witness (y_j <- y_j - lambda_j u^v) and the loop restarts.  The budget
    counts solving steps.

    A run on one generator f of order N, where normalization does nothing,
    may spend most of its budget translating terms far from the vertices.
    After ``_EXACT_STEPS`` solving steps such a run, if it is still going,
    goes on modulo a box span (the vertex preparation of Hironaka,
    "Characteristic polyhedra of singularities", 1967, as Cossart, Jannsen
    and Saito use it, read modulo terms that cannot reach a vertex):

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
    solved vertices are headed at the end of the budget (``_drift_end``);
    when a check fails the corner is enlarged once by what that run saw,
    and after that the exact loop resumes from the state saved at the
    switch.  The exact generators are replayed from that state on demand
    (see ``PreparationResult``).  Runs on two or more generators stay
    exact.
    """
    if budget < 1:
        raise InputError("preparation budget must be >= 1")
    run = _Run(list(gens), polyhedron_of(gens, frame), [], [], [], set())
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
    generators: tuple[Polynomial, ...]


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
    if field.kind in (PRIME_FIELD, FINITE_EXTENSION):
        return [x for x in field.elements() if not _uni_eval(a, x, field)], True
    if field.kind == RATIONALS:
        # rational root theorem on the denominator-cleared polynomial
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
        lifted = g.extended(cvar)
        ext = lifted.variables
        shift = Polynomial.variable(field, ext, u2) + Polynomial.make(
            field, ext, {Monomial.from_dict({cvar: 1, u1: m_exp}): field.one()}
        )
        moved = substitute(lifted, u2, shift)
        nu = generator_order(g, frame)
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        # the coefficient polynomial in __C__ (last coordinate) per (A, B)
        buckets: dict[tuple[int, ...], dict[int, Any]] = {}
        for vec, c in moved.vectors:
            buckets.setdefault(vec[:-1], {})[vec[-1]] = c
        for rest, bucket in buckets.items():
            pt = _point(rest, nu, ui, yi)
            if pt is None:
                continue
            on_line = pt[0] / m_exp + pt[1] == alpha / m_exp + beta
            if on_line and pt[0] > alpha:
                coeffs = [field.zero()] * (max(bucket) + 1)  # low to high
                for e, c in bucket.items():
                    coeffs[e] = field.to_public(c)
                constraints.append(coeffs)
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
    poly = polyhedron_of(current, work_frame)  # always the polyhedron of current
    _, beta, _, s = face_numbers(poly, 1)
    if beta < 1:
        return SigmaResult(Fraction(1), True, (), tuple(current))
    for _ in range(budget):
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
        poly = prep.polyhedron
        _, _, _, s_new = face_numbers(poly, 1)
        if not (s_new > s):
            raise RuntimeError("straightening substitution failed to increase s")
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
    for g in gens:
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        vals = [sum([vec[i] for i in yi])
                + Fraction(sum([vec[i] for i in ui]), 1) / delta_value
                for vec, _ in g.vectors]
        lo = min(vals)
        out.append(Polynomial.from_vectors(g.field, g.variables, {
            vec: c for (vec, c), val in zip(g.vectors, vals) if val == lo}))
    return out
