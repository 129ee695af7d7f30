"""Code that only the tests call.

* ``Monomial`` with ``make``, ``terms`` and ``coefficient`` -- a view of a
  polynomial's terms keyed by variable names, written on the exponent
  vectors that ``Polynomial`` stores (``from_vectors`` and
  ``coefficient_map``);
* ``zero_polynomial`` -- the zero polynomial of a ring;
* ``transform_polyhedron_expected`` -- the purely combinatorial prediction
  for how a characteristic polyhedron moves under a permissible blow-up
  (criterion 6 compares it with the polyhedron recomputed on the chart);
* ``vertex_initial`` -- the vertex initial forms at a point checked to be
  a vertex of the polyhedron;
* ``verify_witness``, ``is_solvable``, ``reduce_modulo_box`` and
  ``advance_by_verified_witness`` -- the solving step of vertex preparation
  as it was before it checked each witness on the translated generators:
  ``char_polyhedron._advance`` verified a witness by translating the vertex
  forms (``is_solvable``), translated the generators, reduced them modulo
  the box (``_Box.reduce``) and scanned them again (``polyhedron_of``);
* ``solve_components`` (with ``_support``) -- the maximal-stratum search on
  ``Polynomial`` residues, each restricted with ``restrict_to_zero``, which
  ``resolution_driver._solve_components`` now runs on support bitmasks;
* ``contains`` -- F-subset containment of two characteristic polyhedra;
* ``matrix_kernel`` -- the right kernel of a matrix of stored
  coefficients, ``local_frame.echelon_add`` folded over its rows and read
  by ``_echelon_kernel``;
* ``public_echelon_add``, ``public_row_reduce``, ``public_matrix_kernel``
  and ``public_directrix_rows`` -- the exact linear algebra of
  ``local_frame`` on public elements (``Fraction``, ``Fp``, ...), which it
  now runs on stored coefficients; ``public_row`` and ``stored_row``
  convert a row between the two forms;
* ``adapt_by_every_move`` -- ``invariant.adapt_frame_to_forms`` as it was
  before it skipped the moves whose pivot a polynomial does not hold: it
  translates every generator and boundary generator by every move;
* ``repo_module`` -- a module of the repository's ``perfbench/`` or
  ``tools/``, imported without leaving bytecode there;
* ``reset_components``, ``fresh_verdict``, ``nu_of_generators`` (``nu_of``),
  ``hasse_constraints`` and ``first_face`` -- the reads of one resolution
  step as each reader made them before each value was derived once: a
  second ``_fresh_components`` on a state whose boundary was reset, a
  fresh ``permissible_check`` for every reader of a center's verdict,
  nu* from a second ``ord_at`` per generator, one ``hasse_derivative``
  pass per derivative, and ``face_numbers`` of the first face read again
  beside ``sigma_search``;
* ``component_to_jsonable``, ``chart_to_jsonable``, ``record_to_jsonable``
  and ``trace_to_jsonable`` -- the JSON trees of a stratum component, a
  chart state, a point record and a trace, built as dicts: the trees whose
  ``json.dumps(..., indent=2)`` text ``resolution_driver``'s one encoder
  (``chart_text`` and ``trace_text``) must write, byte for byte.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import ModuleType
from typing import Any, Iterable, Mapping, Sequence

from surfres.blowup_engine import (
    CLOSED_POINT,
    Center,
    ChartState,
    PermissibilityReport,
    StratumComponent,
    permissible_check,
)
from surfres.char_polyhedron import (
    BUDGET_EXHAUSTED,
    EMPTY,
    ESCAPE_ANNOTATION,
    MINIMAL,
    FPolyhedron,
    Point,
    PreparationResult,
    VertexInitial,
    _axis_of,
    _detect_escape,
    _pure_y_part,
    _screen,
    _solve_char0,
    _solve_ratfunc,
    _translated,
    _vertex_initial,
    face_numbers,
    normalize_at_vertex,
    polyhedron_of,
)
from surfres.exact_algebra import (
    FINITE_EXTENSION,
    PRIME_FIELD,
    RATIONALS,
    FieldDescriptor,
    InputError,
    Polynomial,
    frobenius_split,
    hasse_derivative,
    name_order,
    ord_at,
    q_th_root,
    restrict_to_zero,
    to_string,
    translate,
)
from surfres.invariant import iota_to_jsonable
from surfres.local_frame import (
    Frame,
    NuStar,
    _echelon_kernel,
    _top_degree,
    compute_ridge,
    coordinate_variable,
    echelon_add,
    form_row,
    monomials_of_degree,
    row_reduce,
)
from surfres.resolution_driver import (
    PointRecord,
    RawComponent,
    ResolutionTrace,
    _fresh_components,
    _maximal_components,
)


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
        return dict(self.exps).get(var, 0)

    def degree(self, vars: Iterable[str] | None = None) -> int:
        if vars is None:
            return sum(e for _, e in self.exps)
        vs = set(vars)
        return sum(e for v, e in self.exps if v in vs)


def _vector_of(m: Monomial, variables: tuple[str, ...]) -> tuple[int, ...]:
    """The exponent vector of m aligned with ``variables``."""
    vec = [0] * len(variables)
    for v, e in m.exps:
        if v not in variables:
            raise InputError(f"monomial uses unknown variable {v!r}")
        vec[variables.index(v)] = e
    return tuple(vec)


def make(field: FieldDescriptor, variables: Iterable[str],
         term_map: Mapping[Monomial, Any]) -> Polynomial:
    """The polynomial of a map from monomials to coefficients."""
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise InputError("duplicate ambient variable names")
    return Polynomial.from_vectors(
        field, vs, {_vector_of(m, vs): c for m, c in term_map.items() if c})


def terms(f: Polynomial) -> tuple[tuple[Monomial, Any], ...]:
    """The terms of f as (Monomial, public coefficient) pairs, in canonical
    order."""
    vs, by_name = f.variables, name_order(f.variables)
    return tuple(
        (Monomial(tuple((vs[i], vec[i]) for i in by_name if vec[i])), c)
        for vec, c in f.coefficient_map().items())


def coefficient(f: Polynomial, m: Monomial) -> Any:
    """The public coefficient of m in f; zero when m names a variable that
    f does not have."""
    try:
        vec = _vector_of(m, f.variables)
    except InputError:
        return f.field.zero()
    return f.coefficient_map().get(vec, f.field.zero())


def zero_polynomial(field: FieldDescriptor, variables: Iterable[str]) -> Polynomial:
    """The zero polynomial of the ring over ``field`` in ``variables``."""
    return Polynomial.constant(field, variables, field.zero())


def contains(poly: FPolyhedron, other: FPolyhedron) -> bool:
    """F-subset containment: every vertex of ``other`` lies in ``poly``."""
    if other.is_empty:
        return True
    if poly.is_empty:
        return False
    return all(poly.member(v) for v in other.vertices)


@dataclass(frozen=True)
class TransformedPolyhedron:
    """Predicted polyhedron plus a flag for vertices leaving the quadrant."""

    polyhedron: FPolyhedron
    dropped_vertices: bool


def transform_polyhedron_expected(
    poly: FPolyhedron,
    center: Center,
    chart_var: str,
    frame: Frame,
) -> TransformedPolyhedron:
    """The combinatorial image of a characteristic polyhedron.

    For a closed-point blow-up in dimension two the u1-chart maps a point
    (v1, v2) to (v1 + v2 - 1, v2) and the u2-chart to (v1, v1 + v2 - 1);
    in dimension one the single chart maps (v) to (v - 1).  For a curve
    center containing u_i the i-th coordinate drops by one.  Vertices with
    a negative coordinate no longer constrain the transform; they are
    removed and reported through ``dropped_vertices``.
    """
    e = poly.dim
    if e not in (1, 2):
        raise InputError(f"no transform rule in dimension {e}")
    u = frame.u_block

    if center.kind == CLOSED_POINT:
        if e == 1:
            def mapper(v):  # type: ignore[misc]
                return (v[0] - 1,)
        elif chart_var == u[0]:
            def mapper(v):
                return (v[0] + v[1] - 1, v[1])
        elif len(u) > 1 and chart_var == u[1]:
            def mapper(v):
                return (v[0], v[0] + v[1] - 1)
        else:
            raise InputError(
                "the predicted transform needs a u-block chart variable")
    else:
        if e != 2:
            raise InputError("curve centers act on two-dimensional polyhedra")
        extra = [v for v in center.variables if v in u]
        if len(extra) != 1:
            raise InputError(
                "a curve center must contain exactly one u-variable")
        if extra[0] == u[0]:
            def mapper(v):
                return (v[0] - 1, v[1])
        else:
            def mapper(v):
                return (v[0], v[1] - 1)

    mapped = [mapper(v) for v in poly.vertices]
    kept = [v for v in mapped if all(c >= 0 for c in v)]
    dropped = len(kept) < len(mapped)
    return TransformedPolyhedron(
        polyhedron=FPolyhedron.from_points(e, kept),
        dropped_vertices=dropped,
    )


def vertex_initial(gens: Sequence[Polynomial], frame: Frame, v: Point) -> VertexInitial:
    """F_i(Y) plus the terms whose polyhedron point equals the vertex v."""
    if v not in polyhedron_of(gens, frame).vertices:
        raise InputError(f"{v} is not a vertex of the polyhedron")
    return _vertex_initial(gens, frame, v)


def verify_witness(vi: VertexInitial, lam: Sequence[Any]) -> bool:
    """Whether in_v(f_i) = F_i(Y + lambda U^v) for every vertex form of
    ``vi``: each form's pure part translated and compared with the form."""
    for form, nu in zip(vi.forms, vi.orders):
        F = _pure_y_part(form, vi.frame, nu)
        if _translated(F, vi.frame, vi.vertex, lam) != form:
            return False
    return True


def is_solvable(vi: VertexInitial, field: FieldDescriptor) -> tuple[Any, ...] | None:
    """Witness lambda with in_v(f_i) = F_i(Y + lambda U^v), or None.

    None for non-integral vertices.  Complete over finite fields (exhaustive),
    over the rationals (linear extraction), and over F_p(t) for one y variable
    (unique d-th-root extraction); every candidate is verified symbolically
    (``verify_witness``).  Over a finite field the candidates run through
    ``itertools.product`` of the field's elements, and each is first
    screened on the forms read with U = 1 (``_screen``).  With more y
    variables over F_p(t), where no lambda = 0 is a witness at a vertex,
    ``_solve_ratfunc`` raises a scope error.
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
                if verify_witness(vi, public):
                    return public
        return None
    if field.kind == RATIONALS:
        lam = _solve_char0(vi, field)
    else:
        lam = _solve_ratfunc(vi, field)
    if lam is None or not any(lam):
        return None
    return tuple(lam) if verify_witness(vi, lam) else None


def reduce_modulo_box(box: Any, g: Polynomial, frame: Frame) -> Polynomial:
    """g with its terms in the span J_c of ``box`` dropped; the kept terms
    stay in g's canonical order."""
    yi, d = g.positions(frame.y_block), box.scale
    tests = [(i, f, m) for i, (f, m) in zip(g.positions(frame.u_block),
                                             box.bounds)]
    kept = []
    for term in g.vectors:
        vec = term[0]
        b = sum([vec[i] for i in yi])
        for i, f, m in tests:
            if vec[i] * d + f * b < m:
                kept.append(term)
                break
    return Polynomial(g.field, g.variables, tuple(kept))


def advance_by_verified_witness(run: Any, frame: Frame, budget: int,
                                pause: int | None = None,
                                box: Any = None) -> bool:
    """``char_polyhedron._advance`` with its earlier step body: the witness
    verified on the vertex forms, then the generators translated, reduced
    modulo the box and scanned again."""
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
        if box is not None and all(c >= x for c, x in zip(v, box.corner)):
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
            run.current = [reduce_modulo_box(box, g, frame) for g in run.current]
        run.changes.append({"vertex": v, "witness": lam})
        run.poly = poly = polyhedron_of(run.current, frame)
        run.snapshots.append(
            tuple(w for w in poly.vertices if _axis_of(w) is None))
        if run.escape is None and _detect_escape(run.changes, run.snapshots):
            run.escape = ESCAPE_ANNOTATION
            run.stable = FPolyhedron.from_points(
                poly.dim, [w for w in poly.vertices if _axis_of(w) != _axis_of(v)])


def _support(vec: tuple[int, ...], variables: tuple[str, ...]) -> tuple[str, ...]:
    """The variables of an exponent vector, in name order (as a Monomial
    lists them)."""
    return tuple(variables[i] for i in name_order(variables) if vec[i])


def solve_components(
    constraints: Sequence[Polynomial], variables: tuple[str, ...],
) -> list[RawComponent]:
    """Coordinate subspaces (plus single-condition refinements) inside the
    common zero locus of the constraints.

    Each constraint vanishes at the origin (a Hasse derivative of order
    below the order of f, or the residue of an order-one f), and so does
    each of its residues.  Branches on the variables of a smallest-support
    monomial: any solution set must contain one of them.  When every
    remaining residue is the same non-monomial polynomial, it is recorded
    as the condition of a non-coordinate component.
    """
    order = {v: i for i, v in enumerate(variables)}
    found: list[RawComponent] = []
    seen: set[frozenset] = set()
    stack: list[frozenset] = [frozenset()]
    while stack:
        fixed = stack.pop()
        if fixed in seen:
            continue
        seen.add(fixed)
        residues = []
        for g in constraints:
            r = restrict_to_zero(g, fixed)
            if not r.is_zero:
                residues.append(r)
        if not residues:
            found.append((fixed, None))
            continue
        monomials = [r for r in residues if len(r.vectors) == 1]
        if not monomials and len(set(residues)) == 1:
            found.append((fixed, residues[0]))
            continue
        # branch on a smallest support: of a monomial residue, or with none
        # (several distinct non-monomial residues) of a term, which keeps
        # the search complete for coordinate components
        supports = [_support(vec, r.variables) for r in monomials or residues
                    for vec, _c in r.vectors if any(vec)]
        pick = min(supports, key=lambda s: (len(s), tuple(order[v] for v in s)))
        stack.extend(fixed | {v} for v in pick)
    return _maximal_components(found)


def public_row(field: FieldDescriptor, row: Sequence[Any]) -> list[Any]:
    """The row with every entry a public element."""
    return [field.to_public(c) for c in row]


def stored_row(field: FieldDescriptor, row: Sequence[Any]) -> list[Any]:
    """The row with every entry in stored form."""
    return [field.to_native(c) for c in row]


def matrix_kernel(rows: list[list[Any]], ncols: int,
                  field: FieldDescriptor) -> list[list[Any]]:
    """Basis of the right kernel of the matrix given by ``rows``, all in
    stored coefficients."""
    echelon: dict[int, list[Any]] = {}
    for row in rows:
        echelon_add(echelon, row, field)
    return _echelon_kernel(echelon, ncols, field)


def public_echelon_add(echelon: dict[int, list[Any]], vec: Sequence[Any],
                       field: FieldDescriptor) -> int | None:
    """``local_frame.echelon_add`` on rows of public elements."""
    for col, row in echelon.items():
        c = vec[col]
        if c:
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    lead = next((i for i, x in enumerate(vec) if x), None)
    if lead is None:
        return None
    inv = field.one() / vec[lead]
    vec = [x * inv if x else x for x in vec]
    for col, row in echelon.items():
        c = row[lead]
        if c:
            echelon[col] = [a - c * b if b else a for a, b in zip(row, vec)]
    echelon[lead] = vec
    return lead


def public_row_reduce(rows: list[list[Any]], field: FieldDescriptor) -> list[list[Any]]:
    """Reduced row echelon form of rows of public elements; zero rows
    dropped."""
    echelon: dict[int, list[Any]] = {}
    for row in rows:
        public_echelon_add(echelon, row, field)
    return [echelon[col] for col in sorted(echelon)]


def public_matrix_kernel(rows: list[list[Any]], ncols: int,
                         field: FieldDescriptor) -> list[list[Any]]:
    """Basis of the right kernel of rows of public elements."""
    echelon: dict[int, list[Any]] = {}
    for row in rows:
        public_echelon_add(echelon, row, field)
    zero, one = field.zero(), field.one()
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pc, row in echelon.items():
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _public_linear_conditions(q: int, vec: list[Any],
                              field: FieldDescriptor) -> list[list[Any]]:
    """The conditions over k of the additive form sum_i c_i v_i^q."""
    if q == 1:
        return [list(vec)]
    if field.is_perfect:
        return [[q_th_root(c, q, field) for c in vec]]
    splits = [frobenius_split(c, q) for c in vec]
    rows = [[s[j] for s in splits] for j in range(q)]
    return [row for row in rows if any(row)]


def public_directrix_rows(gens: Sequence[Polynomial]) -> list[list[Any]]:
    """``local_frame._directrix_rows`` on public elements: the unit rows of
    the monomials' supports, the ridge's conditions, or the rows of the
    linear Hasse derivatives."""
    field, variables = gens[0].field, gens[0].variables
    degree, p = _top_degree(gens), field.characteristic
    zero, n = field.zero(), len(variables)
    if all(len(f.vectors) == 1 for f in gens):
        support = {i for f in gens for i, e in enumerate(f.vectors[0][0]) if e}
        return [[field.one() if j == i else zero for j in range(n)]
                for i in sorted(support)]
    if p and degree >= p:
        rows: list[list[Any]] = []
        for s in compute_ridge(gens):
            q = int(s.total_degree())
            coefficients = s.coefficient_map()
            vec = [coefficients.get(tuple(q if j == i else 0 for j in range(n)),
                                    zero) for i in range(n)]
            rows.extend(_public_linear_conditions(q, vec, field))
        return rows
    derivatives: dict[tuple[int, tuple[int, ...]], list[Any]] = {}
    for k, f in enumerate(gens):
        for m, c in f.coefficient_map().items():
            for i, e in enumerate(m):
                if e:
                    a = (k, m[:i] + (e - 1,) + m[i + 1:])
                    row = derivatives.setdefault(a, [zero] * n)
                    row[i] = field.from_int(e) * c
    return list(derivatives.values())


def adapt_by_every_move(
    gens: Sequence[Polynomial], frame: Frame, forms: Sequence[Polynomial],
) -> tuple[tuple[Polynomial, ...], Frame]:
    """``adapt_frame_to_forms`` translating every generator and boundary
    generator by every move, and rebuilding every boundary component."""
    pivots = {coordinate_variable(f) for f in forms}
    moves = []
    if None in pivots:
        order = tuple(frame.y_block) + tuple(frame.u_block)
        pivots = set()
        for row in row_reduce([form_row(f, order) for f in forms],
                              gens[0].field):
            idx = next(i for i, c in enumerate(row) if c)
            pivots.add(order[idx])
            moves.extend((order[idx], -c, {order[i]: 1})
                         for i, c in enumerate(row) if c and i != idx)

    def rewrite(g: Polynomial) -> Polynomial:
        for var, c, shift in moves:
            g = translate(g, var, c, shift)
        return g

    new_gens, boundary = tuple(gens), frame.boundary
    if moves:
        new_gens = tuple(rewrite(g) for g in new_gens)
        boundary = tuple(
            replace(b, generator=rewrite(b.generator)) for b in boundary)
    y_block = tuple(v for v in frame.variables if v in pivots)
    u_block = tuple(v for v in frame.u_block if v not in pivots) + tuple(
        v for v in frame.y_block if v not in pivots)
    return new_gens, Frame(u_block=u_block, y_block=y_block,
                           boundary=boundary)


def repo_module(directory: str, name: str) -> ModuleType:
    """The module ``name`` of the repository directory ``directory``
    (``perfbench`` or ``tools``), imported with that directory on the path
    for the import only, and with no bytecode written."""
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / directory))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


# -- the reads of one resolution step, each as its reader made it before --------

def reset_components(stored: ChartState) -> list[RawComponent]:
    """The raw stratum of a state whose boundary was just made old, found
    again from its generators."""
    return _fresh_components(stored)


def fresh_verdict(chart: ChartState, center: Center) -> PermissibilityReport:
    """A center's verdict, checked afresh on the chart."""
    return permissible_check(chart, center)


def nu_of(gens: Sequence[Polynomial]) -> NuStar:
    """nu* of nonzero generators, each order read again with ``ord_at``."""
    return NuStar(tuple(sorted(int(ord_at(g, g.variables)) for g in gens)))


def nu_of_generators(chart: ChartState) -> NuStar:
    """nu* of the chart's generators (``nu_of``)."""
    return nu_of(chart.generators)


def hasse_constraints(f: Polynomial, order: int) -> list[Polynomial]:
    """All nonzero Hasse derivatives of f of differentiation order < order,
    each once, in the order first met: one ``hasse_derivative`` pass over
    f's terms per derivative."""
    derivatives = dict.fromkeys(
        hasse_derivative(f, dict(zip(f.variables, a))) for total in range(order)
        for a in monomials_of_degree(len(f.variables), total))
    return [g for g in derivatives if not g.is_zero]


def first_face(prepared: PreparationResult, side: int) -> tuple:
    """(alpha, beta, gamma, s) of the side's first face of the prepared
    polyhedron."""
    return face_numbers(prepared.polyhedron, side)


def component_to_jsonable(comp: StratumComponent) -> dict:
    return {
        "cid": comp.cid,
        "variables": list(comp.variables),
        "label": comp.label,
        "original": comp.original,
        "conditions": [to_string(q) for q in comp.conditions],
    }


def chart_to_jsonable(chart: ChartState) -> dict:
    out: dict[str, Any] = {
        "id": chart.chart_id,
        "step": chart.step,
        "variables": list(chart.variables),
        "generators": [to_string(g) for g in chart.generators],
        "u_block": list(chart.frame.u_block),
        "y_block": list(chart.frame.y_block),
        "boundary": [
            {
                "generator": to_string(b.generator),
                "status": b.status,
                "birth_step": b.birth_step,
                "cid": b.cid,
            }
            for b in chart.frame.boundary
        ],
        "stratum": None if chart.stratum is None else [
            component_to_jsonable(c) for c in chart.stratum],
        "residue_degree": chart.residue_degree,
    }
    if chart.lineage is not None:
        out["parent"] = chart.lineage.parent_id
        out["center"] = list(chart.lineage.center.variables)
        out["chart_var"] = chart.lineage.chart_var
    return out


def record_to_jsonable(rec: PointRecord) -> dict:
    return {
        "chart": rec.chart_id,
        "parent": rec.parent_id,
        "point": rec.point,
        "classification": rec.classification,
        "iota_before": iota_to_jsonable(rec.iota_before),
        "iota_after": iota_to_jsonable(rec.iota_after),
        "comparison": rec.comparison,
    }


def trace_to_jsonable(trace: ResolutionTrace) -> dict:
    return {
        "label_mode": trace.label_mode,
        "status": trace.status,
        "error": trace.error,
        "steps": len(trace.events),
        "charts": [chart_to_jsonable(c) for c in trace.charts.values()],
        "events": [
            {
                "step": ev.step,
                "chart": ev.chart_id,
                "center": {
                    "variables": list(ev.center.variables),
                    "kind": ev.center.kind,
                    "label": ev.center_label,
                },
                "created": list(ev.created),
                "records": [record_to_jsonable(r) for r in ev.records],
            }
            for ev in trace.events
        ],
    }
