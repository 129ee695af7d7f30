"""The three-part resolution invariant iota = (iota0, iota_c, iota_poly).

For a point on a (log-)surface presented as a chart state this module
computes

* ``iota0``  = (nu*, |O(x)|, e, e^O): the multiplicity vector, the number
  of old boundary components, and the plain/log directrix dimensions, read
  by ``blowup_engine.iota0`` (the nearness classification reads it too);
* ``iota_c``: a six-slot tuple measuring the original part C of the maximal
  stratum through the point -- identically "zero" when C is empty or the
  point is regular, a fixed formal value when C itself is the next center
  (an isolated point or a permissible curve), and the full tuple
  (nu*(I_C), |O_C(x)|, e_C, e_C^O, delta_C, delta_C^O) otherwise: iota0
  of the chart state of I_C, then its two deltas (``chart_delta``);
* ``iota_poly``: the polyhedral tail (beta, gamma, sigma, alpha) read off
  the prepared characteristic polyhedron of the log-ideal in a frame
  adapted to the log-directrix, with the side convention driven by the
  number of new boundary components.

Tuples are compared lexicographically slot by slot; the blow-up algorithm
is designed so that iota drops strictly at every very near point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Sequence

from .blowup_engine import (
    CLOSED_POINT,
    ChartState,
    StratumComponent,
    Verdicts,
    iota0,
    own_center,
)
from .char_polyhedron import (
    BUDGET_EXHAUSTED,
    PreparationResult,
    delta,
    prepare,
    sigma_search,
)
from .exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    to_string,
    translate,
)
from .local_frame import (
    Frame,
    NuStar,
    compose_with_old_boundary,
    coordinate_variable,
    form_row,
    row_reduce,
)

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"
CASE_IV = "IV"
CASE_V = "V"

LESS = "less"
EQUAL = "equal"
GREATER = "greater"

#: Formal bottom value for the nu* slot of iota_c outside Case III.
FORMAL_ZERO = NuStar((0,))

_ALL_INF = (INF, INF, INF, INF)
_ALL_ZERO = (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseInfo:
    """Which shape the original stratum part C takes at the chart origin."""

    tag: str
    components: tuple[StratumComponent, ...] = ()


def chart_is_regular(chart: ChartState) -> bool:
    """Whether the chart origin is a regular (or empty) point of the variety."""
    orders = chart.nu.orders
    if orders[0] == 0:
        return True  # a unit generator: the chart misses the variety
    # order one and independent initial forms, whose span is the directrix
    return orders[-1] == 1 and chart.directrix[0] == len(chart.generators)


def in_case_v(chart: ChartState) -> bool:
    """Whether the chart misses the variety, or its origin is a regular
    point with no old boundary component through it: Case V, the one case
    that ``classify_case`` decides without reading the stratum."""
    return chart.nu.orders[0] == 0 or (
        chart_is_regular(chart) and not chart.frame.old_components())


def classify_case(chart: ChartState,
                  verdicts: Verdicts | None = None) -> CaseInfo:
    """Classify the chart origin by the original part C of the maximal stratum.

    Case V: the chart misses the variety, or the origin is a regular point
    with no old boundary component through it (transversality to the young
    boundary components is then automatic and the point is finished).  A
    regular point lying on old boundary components is still classified
    through C below, because separating the variety from the boundary may
    need further blow-ups.  C is the union of the stratum components
    through the origin that are strict transforms of the components present
    when the current log-multiplicity value was first attained
    (``original`` components; freshly created components never belong to
    C): Case IV when C is empty; when C is its own center
    (``blowup_engine.own_center``), Case I for the origin itself and Case
    II for one permissible coordinate curve; Case III otherwise (several
    components, a curve that is not permissible, or a component with
    non-coordinate equations).  A curve's verdict is read from
    ``verdicts``, the chart state's own, when they hold it
    (``blowup_engine.center_verdict``).
    """
    if in_case_v(chart):
        return CaseInfo(CASE_V)
    if chart.stratum is None:
        raise InputError(
            "the maximal stratum of this chart has not been computed")
    comps = tuple(c for c in chart.stratum if c.original)
    if not comps:
        return CaseInfo(CASE_IV)
    center = own_center(chart, comps, verdicts)
    if center is None:
        return CaseInfo(CASE_III, comps)
    return CaseInfo(CASE_I if center.kind == CLOSED_POINT else CASE_II, comps)


# ---------------------------------------------------------------------------
# directrix-adapted frames
# ---------------------------------------------------------------------------


def adapt_frame_to_forms(
    gens: Sequence[Polynomial],
    frame: Frame,
    forms: Sequence[Polynomial],
) -> tuple[tuple[Polynomial, ...], Frame]:
    """Change coordinates so the given linear forms become y-coordinates.

    The forms are row-reduced preferring y-block pivots (so boundary
    u-coordinates keep their names whenever possible); each non-trivial
    pivot v of a form v + tail is replaced by v - tail in every generator
    and boundary component, after which the form reads as the bare
    coordinate v.  Coordinate forms c*v reduce to their variables with no
    tail, so when every form is one the pivots are their variables and
    nothing moves.  Returns the generators and a frame whose y-block is
    exactly the pivot set.  A generator that holds none of the moved
    pivots comes back as it is (every generator, when nothing moves), and
    so does a boundary component whose generator holds none.
    """
    if not gens:
        raise InputError("adapt_frame_to_forms needs generators")
    pivots = {coordinate_variable(f) for f in forms}
    moves = []  # v <- v - c * w for each entry c of w in the tail of v
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
        # a tail holds no pivot (the rows are reduced), so the moves commute
        # and bring in no pivot: a move whose pivot g lacks leaves g as it is
        held = g.support_variables()
        for var, c, shift in moves:
            if var in held:
                g = translate(g, var, c, shift)
        return g

    new_gens, boundary = tuple(gens), frame.boundary
    if moves:
        new_gens = tuple(rewrite(g) for g in new_gens)
        boundary = tuple(
            b if (moved := rewrite(b.generator)) is b.generator
            else replace(b, generator=moved) for b in boundary)
    y_block = tuple(v for v in frame.variables if v in pivots)
    u_block = tuple(v for v in frame.u_block if v not in pivots) + tuple(
        v for v in frame.y_block if v not in pivots)
    return new_gens, Frame(u_block=u_block, y_block=y_block,
                           boundary=boundary)


def prepare_adapted(
    gens: Sequence[Polynomial],
    frame: Frame,
    with_old_boundary: bool,
    quantity: str,
) -> PreparationResult:
    """Prepare generators in a frame adapted to a directrix.

    Every delta (through ``chart_delta``: delta_C, delta_C^O, delta^O and
    the driver's delta law) and the polyhedron whose faces and sigma
    ``iota_poly`` reads when e^O = 2 come from this one preparation.  The
    caller adapts the frame (``adapt_frame_to_forms``), because
    ``iota_poly`` checks the new boundary components and orders the u-block
    between adapting and preparing.  With ``with_old_boundary`` the
    generators are first multiplied by the old boundary components.
    Running out of budget is a scope error naming the ``quantity`` being
    computed.
    """
    if with_old_boundary:
        gens = compose_with_old_boundary(list(gens), frame)
    result = prepare(gens, frame)
    if result.status == BUDGET_EXHAUSTED:
        raise ScopeError(
            f"preparation budget exhausted while computing {quantity}")
    return result


def chart_delta(chart: ChartState, log: bool) -> Any:
    """delta of the chart's generators prepared (``prepare_adapted``) in the
    frame adapted to the forms of its directrix, or with ``log`` of its
    log-directrix, the old boundary components folded in (delta^O)."""
    forms = (chart.log_directrix if log else chart.directrix)[1]
    adapted = adapt_frame_to_forms(chart.generators, chart.frame, forms)
    return delta(prepare_adapted(*adapted, log, "delta").polyhedron)


# ---------------------------------------------------------------------------
# iota_c
# ---------------------------------------------------------------------------


def _ideal_of_c(comps: Sequence[StratumComponent],
                field: FieldDescriptor,
                variables: tuple[str, ...]) -> list[Polynomial]:
    """Generators of the reduced ideal of the union of the components.

    One component gives its own equations.  Several coordinate components
    are supported when they share a common coordinate part and each adds
    exactly one extra variable: V(c.., a) u V(c.., b) = V(c.., a*b).
    """
    if len(comps) == 1:
        comp = comps[0]
        gens = [Polynomial.variable(field, variables, v)
                for v in comp.variables]
        gens.extend(comp.conditions)
        return gens
    if any(not c.is_coordinate for c in comps):
        raise ScopeError(
            "no product presentation for a union containing a component "
            "with non-coordinate equations")
    common = set(comps[0].variables)
    for comp in comps[1:]:
        common &= set(comp.variables)
    extras: list[str] = []
    for comp in comps:
        extra = [v for v in comp.variables if v not in common]
        if len(extra) != 1:
            raise ScopeError(
                "no product presentation for this union of components")
        extras.append(extra[0])
    if len(set(extras)) != len(extras):
        raise ScopeError("components of the union are not distinct")
    gens = [Polynomial.variable(field, variables, v)
            for v in sorted(common, key=variables.index)]
    product = tuple(int(v in extras) for v in variables)
    gens.append(Polynomial.from_vectors(field, variables, {product: field.one()}))
    return gens


def iota_c(chart: ChartState, case: CaseInfo | None = None) -> tuple:
    """The six-slot stratum part (nu*(I_C), |O_C|, e_C, e_C^O, d_C, d_C^O).

    Outside Case III the tuple is formal: all-zero in Cases IV and V, and
    all-zero with a trailing 1 in Cases I and II (where C itself is the
    next center).  In Case III it is ``iota0`` of the chart state of I_C,
    then its delta and delta^O.
    """
    if case is None:
        case = classify_case(chart)
    if case.tag in (CASE_IV, CASE_V):
        return (FORMAL_ZERO, 0, 0, 0, 0, 0)
    if case.tag in (CASE_I, CASE_II):
        return (FORMAL_ZERO, 0, 0, 0, 0, 1)

    c = replace(chart, generators=tuple(
        _ideal_of_c(case.components, chart.field, chart.variables)),
        stratum=None)
    nu_c, n_old, e_c, e_c_old = iota0(c)
    return (nu_c, n_old, e_c, e_c_old,
            chart_delta(c, False) if e_c else INF,
            chart_delta(c, True) if e_c_old else INF)


# ---------------------------------------------------------------------------
# iota_poly
# ---------------------------------------------------------------------------


def _new_component_variables(frame: Frame) -> list[str]:
    out = []
    for comp in frame.new_components():
        var = coordinate_variable(comp.generator)
        if var is None:
            raise ScopeError(
                "a new boundary component is not a coordinate divisor in "
                "the adapted frame: " + to_string(comp.generator))
        if var not in frame.u_block:
            raise ScopeError(
                f"new boundary component V({var}) is not transverse to the "
                "log-directrix")
        out.append(var)
    return out


def _side_tuple(prepared: PreparationResult, frame: Frame, side: int) -> tuple:
    """(beta, gamma, sigma, alpha) of one side, the face numbers as
    ``sigma_search`` read them off the first face."""
    result = sigma_search(prepared, frame, side)
    if not result.certified:
        raise ScopeError("sigma could not be certified within the budget")
    alpha, beta, gamma, _s = result.first_face
    return (beta, gamma, result.value, alpha)


def iota_poly(chart: ChartState, case: CaseInfo | None = None) -> tuple:
    """The polyhedral tail (beta, gamma, sigma, alpha) of the invariant.

    Zero when the point is regular or the log-directrix dimension e^O is 0;
    (0, 0, 0, delta^O) when e^O = 1; for e^O = 2 the face numbers of the
    prepared polyhedron of the log-ideal, taken on the side of the single
    new boundary component, or the lexicographic minimum over both sides
    when there are two -- and all-infinite when an original stratum
    component passes through the point or no new component does.
    """
    if case is None:
        case = classify_case(chart)
    if case.tag == CASE_V:
        return _ALL_ZERO

    e_old, forms = chart.log_directrix
    if e_old == 0:
        return _ALL_ZERO
    if e_old > 2:
        raise ScopeError(f"log-directrix dimension {e_old} is out of scope")

    # e^O = 2: the tuple is infinite unless the stratum has moved on (no
    # original component through the point) and the point lies on at least
    # one new boundary component; adapting the frame changes neither
    if e_old == 2 and (case.components or not chart.frame.new_components()):
        return _ALL_INF

    if e_old == 1:
        return (0, 0, 0, chart_delta(chart, True))

    adapted_gens, adapted_frame = adapt_frame_to_forms(
        list(chart.generators), chart.frame, forms)
    new_vars = _new_component_variables(adapted_frame)

    if len(new_vars) == 1 and adapted_frame.u_block[0] != new_vars[0]:
        u1, u2 = adapted_frame.u_block
        adapted_frame = Frame((u2, u1), adapted_frame.y_block,
                              adapted_frame.boundary)

    prepared = prepare_adapted(adapted_gens, adapted_frame, True, "iota_poly")
    if prepared.polyhedron.is_empty:
        return _ALL_INF
    sides = (1,) if len(new_vars) == 1 else (1, 2)
    return min(_side_tuple(prepared, adapted_frame, side) for side in sides)


# ---------------------------------------------------------------------------
# the full invariant and its comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IotaInvariant:
    """iota(x) = (iota0; iota_c; iota_poly) plus the case tag it arose in."""

    iota0: tuple
    iota_c: tuple
    iota_poly: tuple
    case: str

    def as_tuple(self) -> tuple:
        return self.iota0 + self.iota_c + self.iota_poly


def compute_iota(chart: ChartState,
                 verdicts: Verdicts | None = None) -> IotaInvariant:
    """iota of the chart origin; ``verdicts`` (the chart state's own) go
    to ``classify_case``."""
    case = classify_case(chart, verdicts)
    return IotaInvariant(
        iota0=iota0(chart),
        iota_c=iota_c(chart, case),
        iota_poly=iota_poly(chart, case),
        case=case.tag,
    )


def compare_iota(a: IotaInvariant, b: IotaInvariant) -> str:
    """Lexicographic comparison across all fourteen slots of the invariant.

    Python's tuple order is that comparison: every slot is a ``NuStar``
    (totally ordered), an int, a ``Fraction`` or ``INF``.
    """
    x, y = a.as_tuple(), b.as_tuple()
    if x < y:
        return LESS
    return GREATER if y < x else EQUAL


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def value_to_jsonable(v: Any) -> Any:
    """Exact JSON encoding: nu* as a list, inf as "inf", fractions "a/b"."""
    if isinstance(v, NuStar):
        return list(v.orders)
    if v == INF:
        return "inf"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    raise InputError(f"cannot serialize invariant slot {v!r}")


def iota_to_jsonable(iota: IotaInvariant) -> dict:
    return {
        "case": iota.case,
        "iota0": [value_to_jsonable(v) for v in iota.iota0],
        "iota_c": [value_to_jsonable(v) for v in iota.iota_c],
        "iota_poly": [value_to_jsonable(v) for v in iota.iota_poly],
    }
