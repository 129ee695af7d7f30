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
* ``solve_components`` (with ``_support``) -- the maximal-stratum search on
  ``Polynomial`` residues, each restricted with ``restrict_to_zero``, which
  ``resolution_driver._solve_components`` now runs on support bitmasks;
* ``contains`` -- F-subset containment of two characteristic polyhedra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from surfres.blowup_engine import CLOSED_POINT, Center
from surfres.char_polyhedron import (
    FPolyhedron,
    Point,
    VertexInitial,
    _vertex_initial,
    polyhedron_of,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    name_order,
    restrict_to_zero,
)
from surfres.local_frame import Frame
from surfres.resolution_driver import RawComponent, _maximal_components


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
