"""Resolution loop on a tree of affine charts for surfaces.

Starting from a chart whose hypersurface is singular at the origin, the
resolver repeats: compute the components of the maximal log-multiplicity
locus through the origin, assign labels, pick the component of smallest
label as the blow-up center (falling back to the closed point when it is
not permissible or reducible at the origin), blow up, classify the new
chart origins against the parent point, and record the three-part
invariant before and after.  A chart is finished when its hypersurface is
regular (or missing) and meets the boundary with normal crossings.

Labels follow the age-bookkeeping of the algorithm: components present
when the current log-multiplicity value was first attained carry label 0;
a component created by a blow-up gets the child's step count as its
label, except in the default labelling mode where a component dominating
the blown-up center inherits the center's label.  The ``original`` flag
on components (which the invariant's case analysis consults) is never
inherited: only strict transforms keep it, so the invariant does not
depend on the labelling mode.

``check_monotone`` verifies that the recorded invariant strictly drops at
every tracked point above every center.

``trace_text`` (``chart_text`` for one chart state) is the one JSON encoder
of the chart, record and trace shapes, read back by ``trace_to_jsonable``;
``trace_to_dot`` draws a trace for Graphviz.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Mapping, Sequence

from .blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    DROPPED,
    VERY_NEAR,
    VERY_O_NEAR,
    Center,
    ChartState,
    StratumComponent,
    blow_up,
    classify_point,
    is_variety_component,
    locate_point,
    own_center,
    permissible_check,
    replace_chart,
)
from .exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    hasse_derivatives,
    name_order,
    parse_polynomial,
    restrict_to_zero,
    to_string,
)
from .invariant import (
    LESS,
    IotaInvariant,
    chart_delta,
    compare_iota,
    compute_iota,
    iota_to_jsonable,
    value_to_jsonable,
)
from .local_frame import (
    BoundaryComponent,
    Frame,
    OLD,
    coordinate_variable,
    made_old,
)

# -- labelling modes ---------------------------------------------------------

DEFAULT_LABELS = "default"
FRESH_LABELS = "fresh"

# -- trace statuses ----------------------------------------------------------

RESOLVED = "resolved"
STEP_LIMIT = "step_limit"
SCOPE_ERROR = "scope_error"

# -- laws checked at every blow-up --------------------------------------------

LAW_DIRECTRIX_DROPS = "directrix-chart-drops"
LAW_DELTA_DROPS_BY_ONE = "delta-drops-by-one"
LAW_NO_ORIGINAL_REAPPEARS = "no-original-component-reappears"
LAW_NEW_COMPONENTS_PERMISSIBLE = "new-components-permissible"


class LawViolation(RuntimeError):
    """A blow-up broke one of the laws ``resolve`` checks; ``law`` names it."""

    def __init__(self, law: str, detail: str):
        super().__init__(f"{law}: {detail}")
        self.law = law


# ---------------------------------------------------------------------------
# the maximal stratum of one chart
# ---------------------------------------------------------------------------

RawComponent = tuple[frozenset, Polynomial | None]


def _hasse_constraints(f: Polynomial, order: int) -> list[Polynomial]:
    """All nonzero Hasse derivatives of f of differentiation order < order,
    each once, in the order first met (``hasse_derivatives``)."""
    return list(dict.fromkeys(hasse_derivatives(f, order)))


def _solve_components(
    constraints: Sequence[Polynomial], variables: tuple[str, ...],
) -> list[RawComponent]:
    """Coordinate subspaces (plus single-condition refinements) inside the
    common zero locus of the constraints, polynomials in ``variables``.

    Each constraint vanishes at the origin (a Hasse derivative of order
    below the order of f, or the residue of an order-one f), and so does
    each of its residues.  Branches on the variables of a smallest-support
    monomial: any solution set must contain one of them.  When every
    remaining residue is the same non-monomial polynomial, it is recorded
    as the condition of a non-coordinate component.

    The search runs on bitmasks of positions in ``variables``: each
    constraint is read once into terms (support mask, vector, coefficient),
    and the residue on a mask of fixed variables is the terms whose mask
    misses it, in canonical order, so residues are equal when their term
    lists are; one becomes a ``Polynomial`` only as a condition.  Supports
    rank by size, then by their positions in name order; branches are
    pushed in name order.
    """
    by_name = name_order(variables)
    readings = [[(sum([1 << i for i, e in enumerate(vec) if e]), vec, c)
                 for vec, c in g.vectors] for g in constraints]
    rank = {m: (m.bit_count(), tuple([i for i in by_name if m >> i & 1]))
            for m in {t[0] for terms in readings for t in terms}}
    found: list[tuple[int, Polynomial | None]] = []
    seen: set[int] = set()
    stack = [0]
    while stack:
        fixed = stack.pop()
        if fixed in seen:
            continue
        seen.add(fixed)
        residues = [r for r in ([t for t in terms if not t[0] & fixed]
                                for terms in readings) if r]
        if not residues:
            found.append((fixed, None))
            continue
        monomials = [r for r in residues if len(r) == 1]
        if not monomials and all(r == residues[0] for r in residues):
            g = constraints[0]
            found.append((fixed, Polynomial(g.field, g.variables, tuple(
                [(vec, c) for _m, vec, c in residues[0]]))))
            continue
        # branch on a smallest support: of a monomial residue, or with none
        # (several distinct non-monomial residues) of a term, which keeps
        # the search complete for coordinate components
        pick = min([m for r in monomials or residues for m, _v, _c in r if m],
                   key=rank.__getitem__)
        stack.extend(fixed | 1 << i for i in rank[pick][1])
    return _maximal_components([
        (frozenset([v for i, v in enumerate(variables) if fixed >> i & 1]), cond)
        for fixed, cond in found])


def _component_contains(a: RawComponent, b: RawComponent) -> bool:
    """Whether the zero set of component a contains that of component b."""
    vars_a, cond_a = a
    vars_b, cond_b = b
    if not vars_a <= vars_b:
        return False
    if cond_a is None:
        return True
    residue = restrict_to_zero(cond_a, vars_b)
    if residue.is_zero:
        return True
    return cond_b is not None and residue == cond_b


def _maximal_components(comps: list[RawComponent]) -> list[RawComponent]:
    keep = []
    for i, c in enumerate(comps):
        redundant = False
        for j, d in enumerate(comps):
            if i == j or c == d:
                continue
            if _component_contains(d, c):
                # ties (mutual containment) keep the earlier one
                if not (_component_contains(c, d) and i < j):
                    redundant = True
                    break
        if not redundant:
            keep.append(c)
    return keep


def _refine_by_old_components(
    chart: ChartState, comps: list[RawComponent]
) -> list[RawComponent]:
    """Drop components along which the number of old boundary components is
    smaller than at the origin (the log-multiplicity would not be constant
    along them); when nothing is left, the origin itself is the stratum."""
    old_vars = [comp.variable for comp in chart.frame.old_components()]
    if not old_vars:
        return comps
    # a non-coordinate old component (None) is in no component's variables
    kept = [c for c in comps if all(v in c[0] for v in old_vars)]
    if kept:
        return kept
    return [(frozenset(chart.variables), None)]


def _reset_components(chart: ChartState,
                      fresh: list[RawComponent]) -> list[RawComponent]:
    """``_fresh_components`` of a chart whose boundary was just made old
    (``_reset_boundary``), read off ``fresh``, those of the chart before.

    Only the refinement by the old components reads which ones are old.
    Refining by a set and then by a larger one is refining by the larger
    one, the origin included (it lies in every old component), so the
    components of order at least 2 are ``fresh`` refined by the new old
    set.  An order-one tail reads the whole boundary and no status, and a
    chart of order 0 has none.
    """
    if chart.nu.orders[0] < 2:
        return fresh
    return _refine_by_old_components(chart, fresh)


def _tail_components(chart: ChartState, f: Polynomial) -> list[RawComponent]:
    """Stratum of a chart whose hypersurface is regular at the origin.

    Empty when the hypersurface meets the boundary with normal crossings
    at the origin (nothing left to do); otherwise the components of the
    intersection of the hypersurface with the boundary divisors that
    obstruct transversality.
    """
    used = chart.directrix[1][0].support_variables()  # the tangent plane
    support = [v for v in chart.variables if v in used]
    boundary = {comp.variable for comp in chart.frame.boundary}
    if any(v not in boundary for v in support):
        return []  # the tangent space is transverse to the boundary
    if len(support) == 1:
        i = f.positions(support)[0]
        if all(vec[i] for vec, _c in f.vectors):
            return []  # the hypersurface is that coordinate's divisor
    residue = restrict_to_zero(f, support)
    if residue.is_zero:
        return [(frozenset(support), None)]
    pieces = _solve_components([residue], chart.variables)
    return [(vars_ | frozenset(support), cond) for vars_, cond in pieces]


def _fresh_components(chart: ChartState) -> list[RawComponent]:
    """Raw (unlabelled) components of the maximal stratum through the
    chart origin."""
    if len(chart.generators) != 1:
        raise ScopeError(
            "stratum computation needs a principal generator; supply the "
            "component list for multi-generator charts")
    f = chart.generators[0]
    order = chart.nu.orders[0]
    if order == 0:
        return []
    if order == 1:
        return _tail_components(chart, f)
    constraints = _hasse_constraints(f, order)
    comps = _solve_components(constraints, chart.variables)
    for names, condition in comps:
        if not names:
            # a component with no coordinate part (such as the diagonal
            # V(x + y)) cannot be represented as a stratum component
            raise ScopeError(
                "a maximal-order component has no coordinate part "
                f"(cut out by {to_string(condition)}); this shape is not "
                "supported")
    return _refine_by_old_components(chart, comps)


def _canonical_raw(
    chart: ChartState, comps: Iterable[RawComponent]
) -> list[tuple[tuple[str, ...], Polynomial | None]]:
    index = {v: i for i, v in enumerate(chart.variables)}
    ordered = []
    for vars_, cond in comps:
        names = tuple(sorted(vars_, key=index.__getitem__))
        ordered.append((names, cond))
    ordered.sort(key=lambda vc: (len(vc[0]),
                                 tuple(index[v] for v in vc[0]),
                                 "" if vc[1] is None else to_string(vc[1])))
    return ordered


def _label_components(
    chart: ChartState,
    fresh: Iterable[RawComponent],
    label_mode: str,
    reset: bool,
) -> tuple[StratumComponent, ...]:
    """Attach cids, labels, and original flags to freshly computed
    components, merging with the carried strict transforms in
    ``chart.stratum`` unless ``reset`` starts a new labelling era."""
    if label_mode not in (DEFAULT_LABELS, FRESH_LABELS):
        raise InputError(f"unknown labelling mode {label_mode!r}")
    ordered = _canonical_raw(chart, fresh)
    if reset:
        return tuple(
            StratumComponent(cid=i, variables=names, label=0,
                             conditions=() if cond is None else (cond,),
                             original=True)
            for i, (names, cond) in enumerate(ordered))

    carried = {frozenset(c.variables): c
               for c in (chart.stratum or ()) if c.is_coordinate}
    next_cid = max((c.cid for c in (chart.stratum or ())), default=-1) + 1
    lineage = chart.lineage
    out = []
    for names, cond in ordered:
        if cond is None and frozenset(names) in carried:
            out.append(carried[frozenset(names)])
            continue
        label = chart.step
        if (label_mode == DEFAULT_LABELS and lineage is not None
                and lineage.center_label is not None):
            center = lineage.center
            if center.kind == CLOSED_POINT:
                label = lineage.center_label
            elif (cond is None
                    and set(names) == set(center.variables)):
                label = lineage.center_label
        out.append(StratumComponent(
            cid=next_cid, variables=names, label=label,
            conditions=() if cond is None else (cond,), original=False))
        next_cid += 1
    return tuple(out)


def max_stratum(
    chart: ChartState, label_mode: str = DEFAULT_LABELS
) -> tuple[StratumComponent, ...]:
    """Labelled components of the maximal stratum through the chart origin.

    For a chart fresh out of ``blow_up`` the carried strict
    transforms (stored in ``chart.stratum``) keep their cid and label;
    everything else is new and labelled by the chart's step count, except
    that in the default mode a component dominating the blown-up center
    inherits the center's label.  A chart without lineage (or whose
    stratum was never computed) starts a new era: every component gets
    label 0 and the original flag.
    """
    fresh = _fresh_components(chart)
    reset = chart.lineage is None or chart.stratum is None
    return _label_components(chart, fresh, label_mode, reset)


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenterChoice:
    """The selected center plus the label of the stratum component it came
    from (None for a closed-point fallback)."""

    center: Center
    label: int | None


def select_center(chart: ChartState) -> CenterChoice:
    """The component of smallest label when usable, else the closed point.

    The pool is the set of stratum components of minimal label.  When the
    pool is its own center (``own_center``: a single coordinate point, or
    a single permissible coordinate curve) that center is blown up;
    anything else (several components meeting at the origin, or a
    non-permissible curve) falls back to the closed point.  A minimal
    component cut by a non-coordinate condition is out of scope, as is one
    of intermediate dimension, and so is, when the maximal order is at
    least 2, a minimal component that is a whole component of the variety
    (``is_variety_component``), which is then not reduced.  So is any
    center beside a boundary component that is not a coordinate divisor:
    normal crossings with it cannot be certified (``permissible_check``).
    """
    comps = chart.stratum
    if comps is None:
        raise InputError("the stratum of this chart has not been computed")
    if not comps:
        raise InputError("the stratum is empty; there is nothing to blow up")
    min_label = min(c.label for c in comps)
    pool = sorted((c for c in comps if c.label == min_label),
                  key=lambda c: c.cid)
    for c in pool:
        if not c.is_coordinate:
            raise ScopeError(
                "the minimal-label stratum component is cut by the "
                f"non-coordinate condition {to_string(c.conditions[0])}; "
                "blowing it up is out of scope")
    if chart.nu.orders[-1] >= 2:
        for c in pool:
            if is_variety_component(chart, c.variables):
                raise ScopeError(
                    f"stratum component V({', '.join(c.variables)}) is a "
                    "component of the variety of order at least 2; the input "
                    "is not reduced")
    for comp in chart.frame.boundary:
        if comp.variable is None:
            raise ScopeError(
                f"the boundary component {{{to_string(comp.generator)} = 0}} "
                "is not a coordinate divisor; certifying normal crossings of "
                "a center with it is out of scope")
    center = own_center(chart, pool)
    if center is not None:
        return CenterChoice(center, min_label)
    if len(pool) == 1 and len(pool[0].variables) < len(chart.variables) - 1:
        raise ScopeError(
            f"stratum component V({', '.join(pool[0].variables)}) has "
            "codimension below a curve; the input is not reduced of "
            "dimension at most two")
    return CenterChoice(Center(chart.variables, CLOSED_POINT), None)


# ---------------------------------------------------------------------------
# the resolution trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointRecord:
    """One tracked point above a center with its invariant comparison."""

    chart_id: str
    parent_id: str
    point: str
    classification: str
    iota_before: IotaInvariant
    iota_after: IotaInvariant
    comparison: str


@dataclass(frozen=True)
class TraceEvent:
    """One blow-up: the chart acted on, the center, and what it created."""

    step: int
    chart_id: str
    center: Center
    center_label: int | None
    created: tuple[str, ...]
    records: tuple[PointRecord, ...]


@dataclass(frozen=True)
class ResolutionTrace:
    """The chart tree, the ordered blow-up events, and the final status.

    ``iotas`` holds the invariant the resolver computed for a chart, keyed
    by chart id, for the charts whose stored state it evaluated.
    """

    label_mode: str
    status: str
    charts: dict[str, ChartState]
    events: tuple[TraceEvent, ...]
    error: str | None = None
    iotas: dict[str, IotaInvariant] = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# the resolver
# ---------------------------------------------------------------------------


def initial_chart(
    field: FieldDescriptor, variables: tuple[str, ...], text: str,
) -> ChartState:
    """Build a root chart from a polynomial string (see ``root_chart``)."""
    return root_chart(parse_polynomial(text, field, variables))


def root_chart(
    f: Polynomial,
    boundary_vars: tuple[str, ...] = (),
) -> ChartState:
    """Build a root chart of the hypersurface f = 0.

    The frame is adapted to the directrix when its forms are coordinate
    (those variables become the y-block); otherwise the frame is neutral.
    Boundary variables are installed as old components.
    """
    if f.is_zero:
        raise InputError("the hypersurface polynomial must be nonzero")
    field, variables = f.field, f.variables
    boundary = []
    for i, v in enumerate(boundary_vars):
        if v not in variables:
            raise InputError(f"boundary variable {v!r} is not a coordinate")
        if v in boundary_vars[:i]:
            raise InputError(f"boundary variable {v!r} is repeated")
        boundary.append(BoundaryComponent(
            generator=Polynomial.variable(field, variables, v),
            status=OLD, birth_step=0, cid=i))
    chart = ChartState(chart_id="root", generators=(f,),
                       frame=Frame(variables, (), tuple(boundary)))
    y_block = _coordinate_directrix_vars(chart) or ()
    u_block = tuple(v for v in variables if v not in set(y_block))
    return replace_chart(chart, frame=Frame(u_block=u_block, y_block=y_block,
                                            boundary=tuple(boundary)))


def _coordinate_directrix_vars(chart: ChartState) -> tuple[str, ...] | None:
    """The directrix coordinates when every directrix form is a single
    variable, else None."""
    names = {coordinate_variable(form) for form in chart.directrix[1]}
    if None in names:
        return None
    return tuple(v for v in chart.variables if v in names)


def _is_finished(chart: ChartState) -> bool:
    orders = chart.nu.orders
    if orders[0] == 0:
        return True
    return orders[-1] <= 1 and not chart.stratum


def _reset_boundary(chart: ChartState) -> ChartState:
    """All boundary components become old (the multiplicity just dropped).
    The copy keeps nu* and the directrix; the log-directrix reads which
    components are old, so it is derived again."""
    frame = chart.frame
    boundary = tuple(b if b.status == OLD else made_old(b)
                     for b in frame.boundary)
    return replace_chart(
        chart, frame=Frame(frame.u_block, frame.y_block, boundary))


def _plain_delta(chart: ChartState):
    """delta of the prepared polyhedron in a directrix-adapted frame, or
    None when the directrix dimension is not 1 or 2, or delta cannot be
    computed within budget."""
    try:
        if not 0 < len(chart.variables) - chart.directrix[0] <= 2:
            return None
        return chart_delta(chart, False)
    except (InputError, ScopeError):
        return None


def _point_record(
    parent: ChartState, parent_iota: IotaInvariant, point_chart: ChartState,
    point: str,
) -> PointRecord:
    """Classify a tracked point above the parent and compare its invariant
    with the parent's."""
    classification = classify_point(parent, point_chart)
    iota = compute_iota(point_chart)
    return PointRecord(
        chart_id=point_chart.chart_id, parent_id=parent.chart_id, point=point,
        classification=classification, iota_before=parent_iota,
        iota_after=iota, comparison=compare_iota(iota, parent_iota))


def resolve(
    root: ChartState,
    max_steps: int = 64,
    label_mode: str = DEFAULT_LABELS,
    declared_points: Mapping[str, Sequence[Mapping[str, Any]]] | None = None,
) -> ResolutionTrace:
    """Run the blow-up loop until every chart is finished.

    Each round removes one chart from the work queue, selects its center and
    blows it up once (``blow_up`` builds every chart of the center); the
    states made of each child keep what it derived, permissibility verdicts
    included (``replace_chart``), and charts with equal initial forms share
    one directrix computation (``local_frame.compute_directrix``); a
    chart's verdicts are dropped when its round ends.  Every tracked point
    (each child origin, then each point declared on that child) has its
    stratum labelled against the carried components and goes through one
    record path, ``_point_record``: it is classified against the parent
    origin and its invariant compared with the parent's, both on the
    state before any history reset, which is what the strict-decrease
    statement refers to.  At a child origin the ``LAW_*`` laws are then
    checked, and whether the log-multiplicity value dropped is decided once.
    When it dropped, the child starts a new era: labels restart at 0 and,
    when the multiplicity itself dropped, all boundary components become
    old.

    ``declared_points`` maps a chart id to move-dictionaries for
    ``locate_point``; each declared point is recorded in addition to the
    chart origin.

    Scope errors abort the loop and return the partial trace with status
    ``scope_error``; exceeding ``max_steps`` returns ``step_limit``.  A
    blow-up that breaks one of the ``LAW_*`` laws raises ``LawViolation``.
    """
    charts: dict[str, ChartState] = {root.chart_id: root}
    events: list[TraceEvent] = []
    queue: deque[str] = deque([root.chart_id])
    iota_cache: dict[str, IotaInvariant] = {}
    status = RESOLVED
    error: str | None = None
    steps = 0

    try:
        if root.stratum is None:
            charts[root.chart_id] = replace_chart(
                root, stratum=max_stratum(root, label_mode))
        while queue:
            chart = charts[queue.popleft()]
            if _is_finished(chart):
                vars(chart).pop("verdicts", None)
                continue
            if steps >= max_steps:
                status = STEP_LIMIT
                break
            if not chart.stratum:
                # singular chart whose maximal-order locus has no
                # representable component (e.g. only non-coordinate pieces
                # the solver cannot certify): out of scope, not misuse
                raise ScopeError(
                    f"chart {chart.chart_id}: no representable component of "
                    "the maximal-order locus; cannot pick a center")
            choice = select_center(chart)
            steps += 1
            parent_iota = iota_cache.get(chart.chart_id) or compute_iota(chart)
            iota_cache[chart.chart_id] = parent_iota
            directrix_vars = _coordinate_directrix_vars(chart)
            parent_delta = None
            created: list[str] = []
            records: list[PointRecord] = []
            for child in blow_up(chart, choice.center):
                w = child.lineage.chart_var
                fresh = _fresh_components(child)
                pre = replace_chart(child, stratum=_label_components(
                    child, fresh, label_mode, reset=False))
                record = _point_record(chart, parent_iota, pre, "origin")
                records.append(record)
                classification = record.classification
                # iota0 opens with the log-multiplicity value (nu*, |O|)
                dropped = record.iota_after.iota0[:2] < parent_iota.iota0[:2]

                # No point of a directrix-variable chart stays near.
                if (directrix_vars is not None and w in directrix_vars
                        and classification != DROPPED):
                    raise LawViolation(
                        LAW_DIRECTRIX_DROPS,
                        f"near point in directrix chart {pre.chart_id}")
                # delta drops by exactly one at very near points over a
                # closed-point center when e = 1.
                if (choice.center.kind == CLOSED_POINT
                        and classification in (VERY_NEAR, VERY_O_NEAR)
                        and parent_iota.iota0[2] == 1):
                    if parent_delta is None:
                        parent_delta = _plain_delta(chart)
                    child_delta = _plain_delta(pre)
                    if (parent_delta is not None and child_delta is not None
                            and child_delta != parent_delta - 1):
                        raise LawViolation(
                            LAW_DELTA_DROPS_BY_ONE,
                            f"{pre.chart_id}: {parent_delta} -> {child_delta}")
                # Once no original component remains, none reappears while
                # the log-multiplicity value is unchanged.
                if (not dropped and any(c.original for c in pre.stratum)
                        and not any(c.original for c in chart.stratum)):
                    raise LawViolation(
                        LAW_NO_ORIGINAL_REAPPEARS,
                        f"original component reappeared in {pre.chart_id}")
                # Newly created curve components of the multiple locus at
                # log-equimultiple points are regular permissible curves.
                # (Tail charts of multiplicity one track failures of normal
                # crossings instead, where this does not apply.)
                if chart.nu.orders[-1] >= 2 and not dropped:
                    carried_cids = {c.cid for c in (child.stratum or ())}
                    for comp in pre.stratum:
                        if (comp.cid in carried_cids or not comp.is_coordinate
                                or len(comp.variables)
                                != len(pre.variables) - 1):
                            continue
                        curve = Center(comp.variables, COORDINATE_CURVE)
                        report = pre.verdicts[curve] = permissible_check(
                            pre, curve)
                        if not report.ok:
                            raise LawViolation(
                                LAW_NEW_COMPONENTS_PERMISSIBLE,
                                f"new component V({', '.join(comp.variables)}) "
                                f"in {pre.chart_id} is not permissible: "
                                + "; ".join(report.violations))

                stored = pre
                if dropped:
                    if pre.nu < chart.nu:
                        # all boundary components become old, which can
                        # shrink the stratum (it must keep the old-component
                        # count constant), and changes what is permissible
                        stored = _reset_boundary(stored)
                        fresh = _reset_components(stored, fresh)
                    stored = replace_chart(stored, stratum=_label_components(
                        stored, fresh, label_mode, reset=True))
                charts[stored.chart_id] = stored
                if stored is pre:
                    iota_cache[pre.chart_id] = record.iota_after
                created.append(stored.chart_id)
                queue.append(stored.chart_id)

                for moves in (declared_points or {}).get(pre.chart_id, ()):
                    located = locate_point(pre, moves)
                    located = replace_chart(
                        located, stratum=max_stratum(located, label_mode))
                    records.append(_point_record(
                        chart, parent_iota, located,
                        located.chart_id.split("@")[-1]))
            events.append(TraceEvent(
                step=steps, chart_id=chart.chart_id, center=choice.center,
                center_label=choice.label, created=tuple(created),
                records=tuple(records)))
            vars(chart).pop("verdicts", None)
    except ScopeError as exc:
        status = SCOPE_ERROR
        error = str(exc)

    return ResolutionTrace(label_mode=label_mode, status=status,
                           charts=charts, events=tuple(events), error=error,
                           iotas=iota_cache)


# ---------------------------------------------------------------------------
# monotonicity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the strict-decrease scan over a trace."""

    ok: bool
    checked: int
    violations: tuple[dict, ...]


def check_monotone(trace: ResolutionTrace) -> MonotonicityReport:
    """Assert that the invariant strictly dropped at every recorded point.

    Every point record pairs the invariant at the parent origin with the
    invariant at a point above the center; each must compare strictly
    smaller.  Violations carry full diagnostics.
    """
    violations = []
    checked = 0
    for event in trace.events:
        for rec in event.records:
            checked += 1
            if rec.comparison != LESS:
                violations.append({
                    "step": event.step,
                    "parent": rec.parent_id,
                    "chart": rec.chart_id,
                    "point": rec.point,
                    "classification": rec.classification,
                    "comparison": rec.comparison,
                    "iota_before": iota_to_jsonable(rec.iota_before),
                    "iota_after": iota_to_jsonable(rec.iota_after),
                })
    return MonotonicityReport(ok=not violations, checked=checked,
                              violations=tuple(violations))


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------


# Each writer builds, from the trace's objects, the bytes ``json.dumps(...,
# indent=2)`` writes for its shape, and takes the ``newline`` (line break
# and indent) before its closing bracket.
_str = encode_basestring_ascii


def scalar_text(value: Any) -> str | None:
    """A JSON scalar as the stdlib encoder writes it; None for anything
    else."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _list_text(texts: list[str], newline: str) -> str:
    """A JSON array of item texts written one level below ``newline``."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _names_text(names: Iterable[str], newline: str) -> str:
    return _list_text([_str(name) for name in names], newline)


def _iota_text(iota: IotaInvariant, memo: dict) -> str:
    """The text of ``iota_to_jsonable(iota)`` at depth 0.  ``memo`` keeps it
    by the iota object's identity, and each slot value's text by its type
    and value, for one report."""
    text = memo.get(id(iota))
    if text is None:
        parts = []
        for values in (iota.iota0, iota.iota_c, iota.iota_poly):
            slots = []
            for v in values:
                slot = memo.get((type(v), v))
                if slot is None:
                    value = value_to_jsonable(v)  # nu* is a list of ints
                    slot = memo[type(v), v] = (
                        _list_text([scalar_text(n) for n in value], "\n    ")
                        if isinstance(value, list) else scalar_text(value))
                slots.append(slot)
            parts.append(_list_text(slots, "\n  "))
        text = memo[id(iota)] = (
            f'{{\n  "case": {_str(iota.case)},\n  "iota0": {parts[0]},'
            f'\n  "iota_c": {parts[1]},\n  "iota_poly": {parts[2]}\n}}')
    return text


def chart_text(chart: ChartState, newline: str) -> str:
    """The text of one chart state, with its lineage below the root."""
    i, ii = newline + "  ", newline + "    "
    iii = ii + "  "
    boundary = _list_text([
        f'{{{iii}"generator": {_str(to_string(b.generator))},{iii}"status": '
        f'{_str(b.status)},{iii}"birth_step": {scalar_text(b.birth_step)},'
        f'{iii}"cid": {scalar_text(b.cid)}{ii}}}' for b in chart.frame.boundary], i)
    stratum = "null" if chart.stratum is None else _list_text([
        f'{{{iii}"cid": {scalar_text(c.cid)},{iii}"variables": '
        f'{_names_text(c.variables, iii)},{iii}"label": {scalar_text(c.label)},'
        f'{iii}"original": {scalar_text(c.original)},{iii}"conditions": '
        f'{_names_text(map(to_string, c.conditions), iii)}{ii}}}'
        for c in chart.stratum], i)
    tail = "" if chart.lineage is None else (
        f',{i}"parent": {_str(chart.lineage.parent_id)},{i}"center": '
        f'{_names_text(chart.lineage.center.variables, i)},'
        f'{i}"chart_var": {_str(chart.lineage.chart_var)}')
    return (
        f'{{{i}"id": {_str(chart.chart_id)},{i}"step": {scalar_text(chart.step)},'
        f'{i}"variables": {_names_text(chart.variables, i)},{i}"generators": '
        f'{_names_text(map(to_string, chart.generators), i)},{i}"u_block": '
        f'{_names_text(chart.frame.u_block, i)},{i}"y_block": '
        f'{_names_text(chart.frame.y_block, i)},{i}"boundary": {boundary},'
        f'{i}"stratum": {stratum},{i}"residue_degree": '
        f'{scalar_text(chart.residue_degree)}{tail}{newline}}}')


def _record_text(rec: PointRecord, newline: str, memo: dict) -> str:
    """The text of one point record; its iotas come from ``_iota_text``,
    placed at their depth."""
    i = newline + "  "
    before = _iota_text(rec.iota_before, memo).replace("\n", i)
    after = _iota_text(rec.iota_after, memo).replace("\n", i)
    return (
        f'{{{i}"chart": {_str(rec.chart_id)},{i}"parent": {_str(rec.parent_id)},'
        f'{i}"point": {_str(rec.point)},{i}"classification": '
        f'{_str(rec.classification)},{i}"iota_before": {before},'
        f'{i}"iota_after": {after},{i}"comparison": {_str(rec.comparison)}'
        f'{newline}}}')


def trace_text(trace: ResolutionTrace, newline: str) -> str:
    """The text of a trace, its charts and its events, in one pass."""
    i, ii = newline + "  ", newline + "    "
    iii, iv = ii + "  ", ii + "    "
    memo: dict = {}
    events = [
        f'{{{iii}"step": {scalar_text(ev.step)},{iii}"chart": {_str(ev.chart_id)},'
        f'{iii}"center": {{{iv}"variables": {_names_text(ev.center.variables, iv)},'
        f'{iv}"kind": {_str(ev.center.kind)},{iv}"label": '
        f'{scalar_text(ev.center_label)}{iii}}},{iii}"created": '
        f'{_names_text(ev.created, iii)},{iii}"records": '
        f'{_list_text([_record_text(r, iv, memo) for r in ev.records], iii)}{ii}}}'
        for ev in trace.events]
    return (
        f'{{{i}"label_mode": {_str(trace.label_mode)},{i}"status": '
        f'{_str(trace.status)},{i}"error": {scalar_text(trace.error)},{i}"steps": '
        f'{scalar_text(len(trace.events))},{i}"charts": '
        f'{_list_text([chart_text(c, ii) for c in trace.charts.values()], i)},'
        f'{i}"events": {_list_text(events, i)}{newline}}}')


def trace_to_jsonable(trace: ResolutionTrace) -> dict:
    """The trace as the JSON tree that its text (``trace_text``) holds."""
    return json.loads(trace_text(trace, "\n"))


def _dot_escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _case_line(trace: ResolutionTrace, chart_id: str) -> str:
    """The invariant case of a chart, as recorded by the resolver when it
    evaluated this chart state and computed here otherwise."""
    iota = trace.iotas.get(chart_id)
    if iota is None:
        try:
            iota = compute_iota(trace.charts[chart_id])
        except (InputError, ScopeError):
            return "unresolved"
    return f"case {iota.case}"


def trace_to_dot(trace: ResolutionTrace | Mapping[str, Any]) -> str:
    """Graphviz rendering: charts as nodes (id, generators and, on a live
    trace, the invariant case), blow-ups as edges labelled with the center
    and the chart variable.

    ``trace`` is a live trace or a stored trace document in the shape
    ``trace_to_jsonable`` writes; a stored document carries no case, so
    its nodes show none.  Either is first read into (id, generator texts,
    chart variable) node rows and (parent, center variables, created) edge
    rows.
    """
    cases: dict[str, str] = {}
    if isinstance(trace, ResolutionTrace):
        cases = {cid: _case_line(trace, cid) for cid in trace.charts}
        nodes = [(c.chart_id, [to_string(g) for g in c.generators],
                  "?" if c.lineage is None else c.lineage.chart_var)
                 for c in trace.charts.values()]
        edges = [(ev.chart_id, ev.center.variables, ev.created)
                 for ev in trace.events]
    else:
        nodes = [(c["id"], c["generators"], c.get("chart_var", "?"))
                 for c in trace["charts"]]
        edges = [(ev["chart"], ev["center"]["variables"], ev["created"])
                 for ev in trace["events"]]
    chart_vars = {cid: var for cid, _gens, var in nodes}
    lines = ["digraph resolution {", "  node [shape=box];"]
    for cid, gens, _var in nodes:
        parts = [cid, ", ".join(gens)]
        if cid in cases:
            parts.append(cases[cid])
        label = _dot_escape("\n".join(parts))
        lines.append(f'  "{_dot_escape(cid)}" [label="{label}"];')
    for parent_id, center_vars, created in edges:
        parent = _dot_escape(parent_id)
        center = "V(" + ", ".join(center_vars) + ")"
        for child_id in created:
            edge = _dot_escape(center + " / " + chart_vars[child_id])
            lines.append(f'  "{parent}" -> "{_dot_escape(child_id)}" '
                         f'[label="{edge}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
