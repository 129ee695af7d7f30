"""Affine chart blow-ups for embedded surfaces.

This module implements the state of one affine chart of an ambient smooth
space together with the hypersurface (or complete intersection) it carries,
and the operations that drive a resolution process:

* ``permissible_check`` -- decide whether a coordinate subvariety is a
  permissible blow-up center (equimultiple, no component swallowed,
  normal crossings with the boundary),
* ``blow_up``        -- pass to the affine charts of the blow-up, taking
  strict transforms of the defining ideal, keeping each coordinate boundary
  divisor that meets the new origin and appending the new exceptional
  divisor (``blow_up_chart`` builds one of them),
* ``locate_point``   -- move the chart origin to another closed point of
  the exceptional divisor, extending the residue field if the point is not
  rational,
* ``classify_point`` -- compare the chart origin with the parent point
  (dropped / near / O-near / very near / very O-near).

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    ord_at,
    residue_extension,
    restrict_to_zero,
    strict_transform,
    to_string,
    translate,
)
from .local_frame import (
    NEW,
    BoundaryComponent,
    Frame,
    NuStar,
    add_old_boundary,
    compute_directrix,
    initial_form,
    nu_star,
    unchecked_component,
)

# -- center kinds -----------------------------------------------------------

CLOSED_POINT = "closed_point"
COORDINATE_CURVE = "coordinate_curve"

# -- point classifications, ordered from weakest to strongest ----------------

DROPPED = "dropped"
NEAR = "near"
O_NEAR = "O_near"
VERY_NEAR = "very_near"
VERY_O_NEAR = "very_O_near"


# ---------------------------------------------------------------------------
# chart state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumComponent:
    """One irreducible component of the locus of maximal (log-)multiplicity.

    ``variables`` give the coordinate part V(variables); ``conditions`` hold
    additional non-coordinate defining equations (empty for coordinate
    components, which are the only ones blow-up centers may come from).
    ``label`` is the age marker used by the center-selection policy and
    ``cid`` a chart-unique identifier, stable under strict transforms.
    ``original`` marks components that are strict transforms of components
    present when the current log-multiplicity value was first attained; the
    invariant's case analysis consults this flag (labels only steer center
    selection).  When left as None it defaults to ``label == 0``.
    """

    cid: int
    variables: tuple[str, ...]
    label: int
    conditions: tuple[Polynomial, ...] = ()
    original: bool | None = None

    def __post_init__(self) -> None:
        if not self.variables:
            raise InputError("a stratum component needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable in stratum component")
        if self.original is None:
            object.__setattr__(self, "original", self.label == 0)

    @property
    def is_coordinate(self) -> bool:
        return not self.conditions


@dataclass(frozen=True)
class Center:
    """A blow-up center given by coordinate equations V(variables)."""

    variables: tuple[str, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (CLOSED_POINT, COORDINATE_CURVE):
            raise InputError(f"unknown center kind: {self.kind!r}")
        if not self.variables:
            raise InputError("a center needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable in center")


@dataclass(frozen=True)
class Lineage:
    """How a chart arose from its parent chart."""

    parent_id: str
    center: Center
    chart_var: str
    center_label: int | None = None


@dataclass(frozen=True)
class ChartState:
    """One affine chart: ambient coordinates, defining ideal, local frame.

    The field and the variables are the generators' (read off the first).
    ``frame`` fixes the splitting of the coordinates into a u-block and a
    y-block and carries the boundary components with their old/new history.
    ``stratum`` caches the components of the maximal stratum (None when it
    has not been computed for this chart yet).  ``residue_degree`` is the
    degree of the residue field of the chart origin over the original base
    field (grows under non-rational point location).
    """

    chart_id: str
    generators: tuple[Polynomial, ...]
    frame: Frame
    step: int = 0
    stratum: tuple[StratumComponent, ...] | None = None
    lineage: Lineage | None = None
    residue_degree: int = 1

    def __post_init__(self) -> None:
        if not self.generators:
            raise InputError("a chart needs at least one generator")
        if set(self.frame.variables) != set(self.variables):
            raise InputError("frame variables must match the chart variables")
        for g in self.generators:
            if g.is_zero:
                raise InputError("zero generator in chart state")
            if (g.field, g.variables) != (self.field, self.variables):
                raise InputError("the generators' rings differ")

    @property
    def field(self) -> FieldDescriptor:
        return self.generators[0].field

    @property
    def variables(self) -> tuple[str, ...]:
        return self.generators[0].variables

    # nu*, the generators' orders, the directrix, the log-directrix and
    # the permissibility verdicts by center are derived on first read and
    # kept on this state; nu* is read off the orders, and the verdicts are
    # entered one center at a time (``center_verdict``).  ``replace_chart``
    # copies a state with the values its changes leave valid
    # (``_CACHE_READS``), and checks the copy again only when a change is
    # to the generators or the frame (``_CHECKED``); a
    # ``dataclasses.replace`` copy is checked and starts without the
    # values.  Across states, the directrix is also memoised by the
    # initial forms (``compute_directrix``).

    @cached_property
    def nu(self) -> NuStar:
        return nu_star(self.orders)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Each generator's order at the origin, in generator order."""
        return tuple(int(ord_at(g, self.variables)) for g in self.generators)

    @cached_property
    def directrix(self) -> tuple[int, tuple[Polynomial, ...]]:
        """(r, forms) of the directrix of the generators' initial forms."""
        initials = [initial_form(g, g.variables) for g in self.generators]
        r, forms = compute_directrix(initials, self.frame)
        return r, tuple(forms)

    @cached_property
    def log_directrix(self) -> tuple[int, tuple[Polynomial, ...]]:
        """(e^O, forms): the directrix with the old boundary folded in."""
        e_o, forms = add_old_boundary(*self.directrix, self.frame,
                                      self.variables)
        return e_o, tuple(forms)

    @cached_property
    def verdicts(self) -> dict[Center, PermissibilityReport]:
        """The ``permissible_check`` verdicts of this state, by center."""
        return {}


# the fields each cached value of a ``ChartState`` reads: nu* and the
# orders read the generators, the directrix their initial forms
# (``compute_directrix`` does not read the frame), the log-directrix also
# which boundary components are old, and the verdicts what
# ``permissible_check`` reads; a copy that keeps the verdicts shares the
# one table with its source
_CACHE_READS = {
    "nu": ("generators",),
    "orders": ("generators",),
    "directrix": ("generators",),
    "log_directrix": ("generators", "frame"),
    "verdicts": ("generators", "frame"),
}


# the fields ``ChartState.__post_init__`` checks
_CHECKED = ("generators", "frame")

_FIELDS = tuple(f.name for f in fields(ChartState))


def replace_chart(chart: ChartState, **changes: Any) -> ChartState:
    """``dataclasses.replace`` for a chart state, keeping each cached value
    that reads none of the changed fields.

    The copy is built from the parent's fields and the changes.  It is
    checked by ``ChartState.__post_init__``, as a constructed state is,
    when a change is to the generators or the frame (``_CHECKED``); a copy
    that changes only other fields (the stratum, say) keeps the parent's
    checked values.  A change that names no field is refused with
    ``TypeError``, as by ``replace``.
    """
    unknown = changes.keys() - set(_FIELDS)
    if unknown:
        raise TypeError(f"ChartState has no field(s) {sorted(unknown)}")
    parent = chart.__dict__
    copy = object.__new__(ChartState)
    values = copy.__dict__
    for name in _FIELDS:
        values[name] = changes[name] if name in changes else parent[name]
    if not changes.keys().isdisjoint(_CHECKED):
        copy.__post_init__()
    for name, reads in _CACHE_READS.items():
        if name in parent and changes.keys().isdisjoint(reads):
            values[name] = parent[name]
    return copy


def iota0(chart: ChartState) -> tuple[NuStar, int, int, int]:
    """(nu*, |O(x)|, e, e^O): the multiplicity vector, the number of old
    boundary components, the directrix dimension (the ambient dimension
    minus the rank of the directrix equations) and the log-directrix
    dimension; both dimensions are 0 off the variety."""
    nu = chart.nu
    n_old = len(chart.frame.old_components())
    if nu.orders[0] == 0:
        return (nu, n_old, 0, 0)
    return (nu, n_old, len(chart.variables) - chart.directrix[0],
            chart.log_directrix[0])


def make_chart(generators: tuple[Polynomial, ...], u_block: tuple[str, ...],
               y_block: tuple[str, ...],
               boundary: tuple[BoundaryComponent, ...] = ()) -> ChartState:
    """Convenience constructor wiring a frame into a fresh root chart state."""
    return ChartState(chart_id="root", generators=generators,
                      frame=Frame(u_block, y_block, boundary))


# ---------------------------------------------------------------------------
# center validation and permissibility
# ---------------------------------------------------------------------------


def _canonical_center(chart: ChartState, center: Center) -> Center:
    """Validate a center against a chart and order its variables frame-wise."""
    missing = [v for v in center.variables if v not in chart.variables]
    if missing:
        raise InputError(f"center variable(s) {missing} not in the chart")
    ordered = tuple(v for v in chart.variables if v in set(center.variables))
    if center.kind == CLOSED_POINT:
        if set(ordered) != set(chart.variables):
            raise InputError(
                "a closed-point center must use every chart variable")
    else:
        y_set = set(chart.frame.y_block)
        if not y_set <= set(ordered):
            raise InputError(
                "a curve center must contain the whole y-block")
        codim_left = len(chart.variables) - len(ordered)
        if set(ordered) != y_set and codim_left != 1:
            raise InputError(
                "a curve center must be V(y-block) or leave exactly one "
                "free coordinate")
        if set(ordered) == set(chart.variables):
            raise InputError("a curve center cannot be the closed point")
    return Center(variables=ordered, kind=center.kind)


def is_variety_component(chart: ChartState, variables: tuple[str, ...]) -> bool:
    """Whether V(variables) is a whole component of the chart's variety: it
    lies on the variety, of codimension at most the number of generators."""
    return len(variables) <= len(chart.generators) and all(
        restrict_to_zero(g, variables).is_zero for g in chart.generators)


@dataclass(frozen=True)
class PermissibilityReport:
    """Outcome of the permissibility test for a candidate center."""

    ok: bool
    violations: tuple[str, ...] = ()


def permissible_check(chart: ChartState, center: Center) -> PermissibilityReport:
    """Check that V(center) is a permissible blow-up center in this chart.

    Four conditions are verified:

    1. every generator is equimultiple along the center (its order along
       the center ideal equals its order at the origin);
    2. the center does not contain an irreducible component of the chart's
       hypersurface (detected when a principal generator vanishes on it);
    3. the center has normal crossings with the boundary -- guaranteed for
       coordinate boundary components; a non-coordinate boundary generator
       makes the check fail because n.c. cannot be certified;
    4. every old boundary component contains the center, so the number of
       old components (and hence the log-multiplicity) stays constant
       along it.

    Raises InputError when the center is malformed for this chart.
    """
    center = _canonical_center(chart, center)
    violations: list[str] = []
    for g, o_origin in zip(chart.generators, chart.orders):
        o_center = ord_at(g, center.variables)
        if o_center != o_origin:
            violations.append(
                f"generator {to_string(g)} has order {o_center} along the "
                f"center but order {o_origin} at the origin")
    if is_variety_component(chart, center.variables):
        violations.append(
            "the center contains an irreducible component of the variety")
    for comp in chart.frame.boundary:
        if comp.variable is None:
            violations.append(
                "cannot certify normal crossings with the non-coordinate "
                f"boundary component {{{to_string(comp.generator)} = 0}}")
    for comp in chart.frame.old_components():
        if comp.variable is not None and comp.variable not in center.variables:
            violations.append(
                f"the old boundary component V({comp.variable}) meets the "
                "origin but does not contain the center (the number of old "
                "components would not be constant along it)")
    return PermissibilityReport(ok=not violations, violations=tuple(violations))


def center_verdict(chart: ChartState, center: Center) -> PermissibilityReport:
    """``permissible_check(chart, center)``, read from ``chart.verdicts``
    when it holds the center and else computed and entered there."""
    report = chart.verdicts.get(center)
    if report is None:
        report = chart.verdicts[center] = permissible_check(chart, center)
    return report


def is_permissible_curve(chart: ChartState, variables: tuple[str, ...]) -> bool:
    """Whether V(variables) is usable as a coordinate-curve center, with
    the verdict read through ``center_verdict``.

    A curve the chart's frame rejects as a center shape (it misses part of
    the y-block, say) counts as not permissible, like any other violation.
    """
    try:
        return center_verdict(chart, Center(variables, COORDINATE_CURVE)).ok
    except InputError:
        return False


def own_center(chart: ChartState,
               comps: Sequence[StratumComponent]) -> Center | None:
    """The closed point or permissible coordinate curve that the components
    are, when they are one coordinate component of that shape, else None;
    a curve's verdict is read through ``center_verdict``."""
    if len(comps) != 1 or not comps[0].is_coordinate:
        return None
    variables, n = comps[0].variables, len(chart.variables)
    if len(variables) == n:
        return Center(variables, CLOSED_POINT)
    if len(variables) == n - 1 and is_permissible_curve(chart, variables):
        return Center(variables, COORDINATE_CURVE)
    return None


# ---------------------------------------------------------------------------
# the blow-up
# ---------------------------------------------------------------------------


def _strict_transform(g: Polynomial, center: tuple[str, ...],
                      chart_var: str, expected: int) -> Polynomial:
    """The strict transform of g; the power of ``chart_var`` divided out
    must equal ``expected`` (multiplicativity along a permissible center),
    and a mismatch is a hard internal error."""
    strict, mult = strict_transform(g, center, chart_var)
    if strict.is_zero:
        raise InputError("zero total transform")
    if mult != expected:
        raise InputError(
            f"exceptional multiplicity {mult} of {to_string(g)} does not "
            f"match the order {expected} along the center")
    return strict


def _require_permissible(chart: ChartState, center: Center) -> None:
    """Refuse a canonical center that fails ``permissible_check``."""
    report = center_verdict(chart, center)
    if not report.ok:
        raise InputError(
            "center is not permissible: " + "; ".join(report.violations))


def blow_up(chart: ChartState, center: Center) -> tuple[ChartState, ...]:
    """The affine charts D+(w) of the blow-up of the chart in V(center), one
    for each center variable w in the order ``center`` lists them.

    The center is canonicalised and checked once for all the charts; its
    verdict is the chart state's own (``center_verdict``), so one that
    ``select_center`` read is not checked again.  In the chart of w every
    other center variable v is replaced by v * w; each generator is divided
    exactly by w to its order along the center, which the check makes its
    order at the origin (``ChartState.orders``), and that division is
    asserted to be exact of exactly that order.  The exceptional divisor
    V(w) is appended as a new boundary component.

    Every boundary component is a coordinate divisor c * v here, since
    ``permissible_check`` refuses a center beside any other (condition 3),
    so its strict transform is read off its name: for v = w it is the unit
    c, and the component misses the new origin and is dropped; a v != w off
    the center is not touched, and one on it becomes v * w, divided by w
    once; so V(v) is kept as it is.
    """
    canonical = _canonical_center(chart, center)
    _require_permissible(chart, canonical)
    return tuple(_chart_of(chart, canonical, w) for w in center.variables)


def blow_up_chart(chart: ChartState, center: Center, chart_var: str) -> ChartState:
    """The chart D+(chart_var) of ``blow_up``, after the same checks."""
    canonical = _canonical_center(chart, center)
    if chart_var not in canonical.variables:
        raise InputError(
            f"chart variable {chart_var!r} must belong to the center")
    _require_permissible(chart, canonical)
    return _chart_of(chart, canonical, chart_var)


def _chart_of(chart: ChartState, center: Center, w: str) -> ChartState:
    """The chart D+(w) of ``blow_up`` in a canonical permissible center,
    along which each generator's order is its order at the origin
    (condition 1 of ``permissible_check``).  Every boundary component is a
    coordinate divisor V(v), as ``permissible_check`` refuses any other,
    and so is the exceptional divisor V(w), built without a second check
    of its order (``unchecked_component``)."""
    new_generators = tuple(
        _strict_transform(g, center.variables, w, order)
        for g, order in zip(chart.generators, chart.orders))

    step = chart.step + 1

    new_boundary = [comp for comp in chart.frame.boundary
                    if comp.variable != w]
    max_cid = max((c.cid for c in chart.frame.boundary), default=-1)
    new_boundary.append(unchecked_component(
        Polynomial.variable(chart.field, chart.variables, w), NEW, step,
        max_cid + 1))

    u_block, y_block = chart.frame.u_block, chart.frame.y_block
    if w in y_block:
        y_block = tuple(v for v in y_block if v != w)
        u_block = (w,) + u_block
    new_frame = Frame(u_block=u_block, y_block=y_block,
                      boundary=tuple(new_boundary))

    new_stratum: tuple[StratumComponent, ...] | None = None
    center_comp: StratumComponent | None = None
    if chart.stratum is not None:
        kept = []
        for comp in chart.stratum:
            if not comp.is_coordinate:
                continue  # must be recomputed from scratch downstream
            if center_comp is None and set(comp.variables) == set(center.variables):
                center_comp = comp
            if w not in comp.variables:
                kept.append(comp)  # else its strict transform misses the origin
        new_stratum = tuple(kept)

    return ChartState(
        chart_id=f"{chart.chart_id}/{w}",
        generators=new_generators,
        frame=new_frame,
        step=step,
        stratum=new_stratum,
        lineage=Lineage(
            parent_id=chart.chart_id,
            center=center,
            chart_var=w,
            center_label=None if center_comp is None else center_comp.label,
        ),
        residue_degree=chart.residue_degree,
    )


def _moved_boundary(
    boundary: tuple[BoundaryComponent, ...],
    move: Callable[[Polynomial], Polynomial],
) -> list[BoundaryComponent]:
    """Each boundary component with its generator moved, dropping those
    that no longer pass through the chart origin; a component whose
    generator the move leaves unchanged is kept as it is."""
    moved = ((comp, move(comp.generator)) for comp in boundary)
    return [comp if g == comp.generator else replace(comp, generator=g)
            for comp, g in moved if not g.constant_coefficient()]


# ---------------------------------------------------------------------------
# point location on the exceptional divisor
# ---------------------------------------------------------------------------


def locate_point(chart: ChartState, moves: Mapping[str, Any]) -> ChartState:
    """Move the chart origin to another closed point of the current chart.

    ``moves`` maps a variable either to a field element a (the coordinate of
    the new point: the chart is re-centered by the translation v -> v + a)
    or to a univariate irreducible polynomial over a prime field (a
    non-rational point: the residue field is extended by a root and the
    variable translated by that root).  The new point must stay on the
    exceptional divisor: the chart variable that created this chart cannot
    be assigned a nonzero coordinate.  A point off the hypersurface gives a
    chart with nu* = (0).  The generator of an extended residue field must
    not share its name with a chart variable, or the two would print alike.
    """
    field = chart.field
    unknown = [v for v in moves if v not in chart.variables]
    if unknown:
        raise InputError(f"cannot move along unknown variable(s) {unknown}")

    conditions = {v: m for v, m in moves.items() if isinstance(m, Polynomial)}
    translations = {v: m for v, m in moves.items() if not isinstance(m, Polynomial)}

    if chart.lineage is not None:
        w = chart.lineage.chart_var
        if (w in translations and translations[w]) or w in conditions:
            raise InputError(
                "the located point must stay on the exceptional divisor "
                f"V({w})")

    if len(conditions) > 1:
        raise ScopeError(
            "only one residue-field extension per location step is supported")

    new_field, degree = field, 1
    values: dict[str, Any] = dict(translations)

    if conditions:
        (var, cond), = conditions.items()
        new_field, root = residue_extension(cond, var)
        degree = int(cond.total_degree())
        if new_field != field:
            if new_field.generator_name in chart.variables:
                raise InputError(
                    f"the residue field generator {new_field.generator_name!r}"
                    " is also a chart variable; rename that variable")
            values = {v: new_field.embed(a) for v, a in values.items()}
        values[var] = root

    extended = new_field != field
    if not any(values.values()) and not extended:
        return chart

    def shift(f: Polynomial) -> Polynomial:
        # the lift, then one constant move v <- v + a at a time (they commute)
        if extended:
            f = f.over(new_field)
        for v, a in values.items():
            if a:
                f = translate(f, v, a, {})
        return f

    new_generators = tuple(shift(g) for g in chart.generators)
    new_boundary = _moved_boundary(chart.frame.boundary, shift)

    new_stratum: tuple[StratumComponent, ...] | None = None
    if chart.stratum is not None:
        kept = []
        for comp in chart.stratum:
            moved = [shift(q) for q in comp.conditions]
            if (any(values.get(v) for v in comp.variables)
                    or any(q.constant_coefficient() for q in moved)):
                continue  # the component misses the new point
            kept.append(replace(comp, conditions=tuple(
                q for q in moved if not q.is_zero)))
        new_stratum = tuple(kept)

    suffix = ",".join(
        f"{v}" for v in sorted(values) if values[v]) or "id"
    return ChartState(
        chart_id=f"{chart.chart_id}@{suffix}",
        generators=new_generators,
        frame=Frame(u_block=chart.frame.u_block, y_block=chart.frame.y_block,
                    boundary=tuple(new_boundary)),
        step=chart.step,
        stratum=new_stratum,
        lineage=chart.lineage,
        residue_degree=chart.residue_degree * degree,
    )


# ---------------------------------------------------------------------------
# nearness classification
# ---------------------------------------------------------------------------


def classify_point(parent: ChartState, child: ChartState) -> str:
    """Compare the child chart origin with the parent point, slot by slot
    of ``iota0``.

    Returns the strongest applicable tag among ``dropped`` (the multiplicity
    invariant improved), ``near`` (same nu*), ``O_near`` (near and the same
    number of old boundary components), ``very_near`` (near and the same
    directrix dimension e) and ``very_O_near`` (O-near, very near, and the
    same log-directrix dimension e^O).  nu* is compared first, so a dropped
    point needs no directrix.
    """
    if child.nu < parent.nu:
        return DROPPED
    if parent.nu < child.nu:
        raise InputError(
            "the multiplicity invariant increased across the blow-up; "
            "the center cannot have been permissible")
    _, n_old, e, e_old = iota0(parent)
    _, child_n_old, child_e, child_e_old = iota0(child)
    o_near = child_n_old == n_old
    very_near = child_e == e
    if o_near and very_near and child_e_old == e_old:
        return VERY_O_NEAR
    if very_near:
        return VERY_NEAR
    if o_near:
        return O_NEAR
    return NEAR
