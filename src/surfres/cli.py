"""Command-line front end: parse job documents, dispatch analyses, emit reports.

A job is a single JSON document (read from a path or stdin) describing the
coefficient field, the variables, the generators, and optionally a frame,
boundary components, a stratum, a point to relocate to, a blow-up center, and
limits.  Flags select the subcommand, limits, and output path only.

Subcommands
-----------
analyze     order sequence, boundary counts, directrix dimensions, case tag
polyhedron  prepared projected polyhedron: vertices, delta, face numbers,
            sigma search, preparation log
invariant   the full three-part invariant at the chart origin
blowup      blow up one center and classify every chart origin above it
resolve     run the resolution loop and check strict decrease
export      render a resolution trace as DOT or JSON

Exit codes: 0 success, 2 malformed input, 3 out-of-scope request (including
a polynomial text too large to expand), 4 monotonicity failure or a broken
resolution law.  Diagnostics go to stderr, reports to stdout or the
--output path; the exception is ``resolve`` ending in exit 3, which writes
its report with the reason in ``trace.error`` and leaves stderr empty.
Identical jobs produce byte-identical reports.

Infinity is serialized as the string "inf" and non-integral rationals as
"a/b" strings, keeping every report exact.  Traces and charts (of
``resolve``, ``export`` and ``blowup``) are written by
``resolution_driver``'s encoder, the rest by ``_report_text``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from .blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    Center,
    ChartState,
    StratumComponent,
    blow_up,
    classify_point,
    locate_point,
    make_chart,
    replace_chart,
)
from .char_polyhedron import delta, face_numbers, prepare, sigma_search
from .exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    coefficient_text,
    ord_at,
    parse_polynomial,
    restrict_to_zero,
    to_string,
)
from .invariant import (
    chart_is_regular,
    classify_case,
    compute_iota,
    in_case_v,
    iota0,
    iota_to_jsonable,
    value_to_jsonable,
)
from .local_frame import NEW, OLD, BoundaryComponent
from .resolution_driver import (
    DEFAULT_LABELS,
    FRESH_LABELS,
    SCOPE_ERROR,
    LawViolation,
    MonotonicityReport,
    ResolutionTrace,
    chart_text,
    check_monotone,
    max_stratum,
    resolve,
    root_chart,
    scalar_text,
    select_center,
    trace_text,
    trace_to_dot,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCOPE = 3
EXIT_MONOTONE = 4

FINISHED_NOTE = "resolution process is finished"


# ---------------------------------------------------------------------------
# job parsing
# ---------------------------------------------------------------------------


def _expect(data: dict, key: str, kind: type, where: str) -> Any:
    if key not in data:
        raise InputError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _string_list(data: dict, key: str, where: str) -> list[str]:
    value = _expect(data, key, list, where)
    if not all(isinstance(v, str) for v in value):
        raise InputError(f"{where}.{key}: expected a list of strings")
    return value


def _int_field(data: dict, key: str, default: int, where: str) -> int:
    return _expect(data, key, int, where) if key in data else default


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where}: expected an object")
    return value


def _field_from(data: Any) -> FieldDescriptor:
    _object(data, "jobspec.field")
    kind = _expect(data, "kind", str, "jobspec.field")
    if kind == "rationals":
        return FieldDescriptor.rationals()
    if kind == "prime_field":
        p = _expect(data, "characteristic", int, "jobspec.field")
        return FieldDescriptor.prime_field(p)
    if kind == "rational_functions":
        p = _expect(data, "characteristic", int, "jobspec.field")
        name = data.get("parameter", "t")
        if not isinstance(name, str):
            raise InputError("jobspec.field.parameter: expected a string")
        return FieldDescriptor.rational_functions(p, name)
    raise InputError(
        f"jobspec.field.kind: unknown kind {kind!r} "
        "(use rationals | prime_field | rational_functions)")


def _scalar(field: FieldDescriptor, variables: tuple[str, ...],
            value: Any, where: str) -> Any:
    """Parse a coefficient given as an int or an exact string like "-3/2"."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a number or string")
    if isinstance(value, int):
        return field.from_int(value)
    if not isinstance(value, str):
        raise InputError(f"{where}: expected a number or string")
    p = parse_polynomial(value, field, variables)
    if p.is_constant():
        return p.constant_coefficient()
    raise InputError(f"{where}: {value!r} is not a constant")


def _move_value(field: FieldDescriptor, variables: tuple[str, ...], var: str,
                value: Any, where: str) -> Any:
    """A point move of ``var``: a coordinate, or a condition ``root_of`` in
    the variable ``name`` (default ``s``), returned as the same polynomial in
    ``var``."""
    if isinstance(value, dict):
        text = _expect(value, "root_of", str, where)
        name = value.get("name", "s")
        if not isinstance(name, str):
            raise InputError(f"{where}.name: expected a string")
        cond = parse_polynomial(text, field, (name,))
        return Polynomial.from_vectors(field, (var,), dict(cond.vectors))
    return _scalar(field, variables, value, where)


def _stratum_from(data: Any, field: FieldDescriptor,
                  variables: tuple[str, ...]) -> tuple[StratumComponent, ...]:
    if not isinstance(data, list):
        raise InputError("jobspec.stratum: expected a list")
    comps = []
    for i, entry in enumerate(data):
        where = f"jobspec.stratum[{i}]"
        _object(entry, where)
        names = _string_list(entry, "variables", where)
        unknown = [v for v in names if v not in variables]
        if unknown:
            raise InputError(f"{where}.variables: unknown variable(s) {unknown}")
        label = _expect(entry, "label", int, where)
        texts = _string_list(entry, "conditions", where) \
            if "conditions" in entry else ()
        original = entry.get("original")
        if original is not None and not isinstance(original, bool):
            raise InputError(f"{where}.original: expected true, false or null")
        conditions = tuple(parse_polynomial(q, field, variables)
                           for q in texts)
        for j, q in enumerate(conditions):
            if restrict_to_zero(q, names).is_zero:
                raise InputError(
                    f"{where}.conditions[{j}]: {to_string(q)} vanishes on "
                    f"V({', '.join(names)}), so it cuts nothing out of the "
                    "component; list only conditions that cut it")
        comps.append(StratumComponent(
            cid=_int_field(entry, "cid", i, where),
            variables=tuple(names),
            label=label,
            conditions=conditions,
            original=original,
        ))
    # one component: the same variable set and the same conditions
    _refuse_repeated_entry("stratum", comps, lambda c, d: (
        set(c.variables) == set(d.variables)
        and set(c.conditions) == set(d.conditions)))
    return tuple(comps)


def _proportional(g: Polynomial, h: Polynomial) -> bool:
    """Whether two nonzero polynomials agree up to a nonzero constant
    factor.  Comparing the exponent vectors first keeps the test cheap on
    distinct divisors, which every chart job has."""
    return ([vec for vec, _c in g.vectors] == [vec for vec, _c in h.vectors]
            and g.scale(h.vectors[0][1]) == h.scale(g.vectors[0][1]))


def _refuse_repeated_entry(key: str, entries: Sequence[Any],
                           same: Callable[[Any, Any], bool]) -> None:
    """Refuse two entries of the job's ``boundary`` that name one divisor,
    or of its ``stratum`` that name one component: either would be counted
    twice."""
    what = "divisor" if key == "boundary" else "component"
    for j, b in enumerate(entries):
        for i in range(j):
            if same(entries[i], b):
                raise InputError(
                    f"jobspec.{key}[{j}]: names the same {what} as "
                    f"jobspec.{key}[{i}]; list each {what} once")


def build_chart(job: dict, reads_stratum: bool = False) -> ChartState:
    """Turn a parsed job document into a chart state.

    The maximal stratum comes from the job when it gives one.  Otherwise a
    one-generator chart gets it at its origin, before any ``point`` moves
    it, and any chart gets it at the located point when the command reads
    it (``reads_stratum``) outside Case V.  A command that reads it meets
    the scope error of a stratum that cannot be computed, as ``resolve``
    meets it at its root; the others build the chart without one.
    """
    field = _field_from(_expect(job, "field", dict, "jobspec"))
    variables = tuple(_string_list(job, "variables", "jobspec"))
    if field.transcendental_name in variables:
        raise InputError(
            f"jobspec.field.parameter: {field.transcendental_name!r} is also a "
            "chart variable, so no generator could name the field's parameter; "
            "rename one of them")
    texts = _string_list(job, "generators", "jobspec")
    if not texts:
        raise InputError("jobspec.generators: at least one generator is needed")
    generators = tuple(
        parse_polynomial(t, field, variables) for t in texts)

    boundary_data = job.get("boundary", [])
    if not isinstance(boundary_data, list):
        raise InputError("jobspec.boundary: expected a list")

    if "frame" in job:
        frame_data = _expect(job, "frame", dict, "jobspec")
        u_block = tuple(_string_list(frame_data, "u", "jobspec.frame"))
        y_block = tuple(_string_list(frame_data, "y", "jobspec.frame"))
        boundary = []
        for i, entry in enumerate(boundary_data):
            where = f"jobspec.boundary[{i}]"
            _object(entry, where)
            status = entry.get("status", NEW)
            if status not in (OLD, NEW):
                raise InputError(f"{where}.status: expected 'old' or 'new'")
            boundary.append(BoundaryComponent(
                generator=parse_polynomial(
                    _expect(entry, "generator", str, where), field, variables),
                status=status,
                birth_step=_int_field(entry, "birth", 0, where),
                cid=_int_field(entry, "cid", i, where),
            ))
        _refuse_repeated_entry("boundary", [b.generator for b in boundary],
                               _proportional)
        chart = make_chart(generators, u_block, y_block, tuple(boundary))
    else:
        # no frame given: boundary components must be coordinate divisors and
        # the frame is inferred from the directrix of the single generator
        if len(generators) != 1:
            raise InputError(
                "jobspec.frame: required for multi-generator charts")
        names = []
        for i, entry in enumerate(boundary_data):
            where = f"jobspec.boundary[{i}]"
            _object(entry, where)
            if entry.get("status", OLD) != OLD or "birth" in entry \
                    or "cid" in entry:
                raise InputError(
                    f"{where}: 'status' 'new', 'birth' and 'cid' need a "
                    "frame (u and y blocks) in the job; without one every "
                    "boundary component is an old coordinate divisor")
            name = _expect(entry, "generator", str, where)
            if name not in variables:
                raise InputError(
                    f"{where}.generator: {name!r} is not a variable; "
                    "supply an explicit frame for general divisors")
            names.append(name)
        _refuse_repeated_entry("boundary", names, str.__eq__)
        chart = root_chart(generators[0], tuple(names))

    unavailable = None  # the scope error of the origin's stratum
    if "stratum" in job:
        chart = replace_chart(
            chart, stratum=_stratum_from(job["stratum"], field, variables))
    elif len(chart.generators) == 1 and chart.stratum is None:
        try:
            chart = replace_chart(chart, stratum=max_stratum(chart))
        except ScopeError as err:
            unavailable = err

    if "point" in job:
        point = _expect(job, "point", dict, "jobspec")
        moves_data = _expect(point, "moves", dict, "jobspec.point")
        moves = {
            v: _move_value(chart.field, chart.variables, v, m,
                           f"jobspec.point.moves.{v}")
            for v, m in moves_data.items()
        }
        located = locate_point(chart, moves)
        if located is not chart:
            chart, unavailable = located, None
    if "stratum" in job:
        _refuse_components_off_the_origin(chart)

    if reads_stratum and chart.stratum is None and not in_case_v(chart):
        if unavailable is not None:
            raise unavailable
        chart = replace_chart(chart, stratum=max_stratum(chart))
    return chart


def _refuse_components_off_the_origin(chart: ChartState) -> None:
    """Refuse a job's stratum component with a condition that does not
    vanish at the chart origin: the component misses the point, so no
    case, invariant or center of the point can be read from it.  A
    ``point`` move keeps only the components through the new origin, so
    only an unmoved chart can hold one, at its index in the job."""
    for i, comp in enumerate(chart.stratum):
        for j, q in enumerate(comp.conditions):
            if q.constant_coefficient():
                raise InputError(
                    f"jobspec.stratum[{i}].conditions[{j}]: {to_string(q)} "
                    "does not vanish at the chart origin, so the component "
                    "misses the point; list only components through it")


def _check_stratum_orders(job: dict, chart: ChartState) -> None:
    """Refuse a job's coordinate stratum component along which a generator
    has lower order than at the origin.

    Such a component is not in the maximal-order locus: a center chosen
    from it could blow up a point that needs no blow-up, and an invariant
    read from it describes a subvariety that need not lie on the surface.
    ``resolve``, ``export``, ``invariant``, ``polyhedron`` and ``blowup``
    without a center check it; ``analyze`` takes the stratum as given.
    """
    if "stratum" not in job:
        return
    for comp in chart.stratum or ():
        if comp.conditions:
            continue
        for g in chart.generators:
            along, at = ord_at(g, comp.variables), ord_at(g, g.variables)
            if along < at:
                i = next(i for i, entry in enumerate(job["stratum"])
                         if tuple(entry["variables"]) == comp.variables)
                raise InputError(
                    f"jobspec.stratum[{i}].variables: the generator {g} has "
                    f"order {along} along V({', '.join(comp.variables)}) but "
                    f"{at} at the origin; the component is not in the "
                    "maximal-order locus")


def _center_from(job: dict, chart: ChartState) -> Center:
    if "center" in job:
        data = _expect(job, "center", dict, "jobspec")
        names = tuple(_string_list(data, "variables", "jobspec.center"))
        kind = CLOSED_POINT if len(names) == len(chart.variables) \
            else COORDINATE_CURVE
        return Center(names, data.get("kind", kind))
    _check_stratum_orders(job, chart)
    return select_center(chart).center


def _options(job: dict) -> dict:
    return _object(job.get("options", {}), "jobspec.options")


def _int_option(job: dict, key: str, default: int, minimum: int) -> int:
    value = _options(job).get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise InputError(
            f"jobspec.options.{key}: expected an integer >= {minimum}, "
            f"got {value!r}")
    return value


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _chart_summary(chart: ChartState) -> dict:
    return {
        "variables": list(chart.variables),
        "generators": [to_string(g) for g in chart.generators],
    }


def report_analyze(job: dict) -> dict:
    chart = build_chart(job, reads_stratum=True)
    nu, n_old, e, e_old = iota0(chart)
    return {
        "command": "analyze",
        **_chart_summary(chart),
        "nu_star": value_to_jsonable(nu),
        "old_components": n_old,
        "new_components": len(chart.frame.new_components()),
        "e": e,
        "e_O": e_old,
        "case": classify_case(chart).tag,
        "regular": chart_is_regular(chart),
    }


def _vertices(poly) -> list[list[Any]]:
    return [[value_to_jsonable(c) for c in v] for v in poly.vertices]


def report_polyhedron(job: dict) -> dict:
    chart = build_chart(job)
    _check_stratum_orders(job, chart)
    budget = _int_option(job, "budget", 64, 1)
    sigma_budget = _int_option(job, "sigma_budget", 32, 1)
    if ("frame" not in job and chart.frame.e > 2 and not chart.frame.y_block
            and chart.directrix[0]):
        # ``root_chart`` put every variable in u: the directrix is not a
        # coordinate subspace
        forms = ", ".join(to_string(f) for f in chart.directrix[1])
        raise ScopeError(
            f"polyhedron: no frame could be inferred, since the directrix "
            f"({forms}) is not a coordinate subspace; supply a frame (u and "
            "y blocks) in the job")
    result = prepare(chart.generators, chart.frame, budget=budget)
    poly = result.polyhedron
    report = {
        "command": "polyhedron",
        **_chart_summary(chart),
        "u_block": list(chart.frame.u_block),
        "y_block": list(chart.frame.y_block),
        "status": result.status,
        "vertices": _vertices(poly),
        "delta": value_to_jsonable(delta(poly)),
        "prepared_generators": [to_string(g) for g in result.generators],
        "preparation_log": [
            {
                "vertex": [value_to_jsonable(c) for c in change["vertex"]],
                "witness": [coefficient_text(x) for x in change["witness"]],
            }
            for change in result.changes
        ],
        "solved_vertices": [
            [value_to_jsonable(c) for c in v]
            for v in result.solved_vertices],
    }
    if result.escape_annotation is not None:
        report["escape"] = result.escape_annotation
    if result.stable_polyhedron is not None:
        report["stable_vertices"] = _vertices(result.stable_polyhedron)
    if poly.dim == 2 and not poly.is_empty:
        names = ("alpha", "beta", "gamma", "s")
        report["faces"] = {
            f"side{side}": dict(zip(
                names,
                (value_to_jsonable(v)
                 for v in face_numbers(poly, side))))
            for side in (1, 2)
        }
        report["sigma"] = {
            f"side{side}": value_to_jsonable(
                sigma_search(result, chart.frame, side,
                             budget=sigma_budget).value)
            for side in (1, 2)
        }
    return report


def report_invariant(job: dict) -> dict:
    chart = build_chart(job, reads_stratum=True)
    _check_stratum_orders(job, chart)
    report = {
        "command": "invariant",
        **_chart_summary(chart),
        **iota_to_jsonable(compute_iota(chart)),
    }
    if chart_is_regular(chart):
        report["note"] = FINISHED_NOTE
    return report


def report_blowup(job: dict) -> dict:
    chart = build_chart(job, reads_stratum="center" not in job)
    center = _center_from(job, chart)
    children = [{
        "chart_var": child.lineage.chart_var,
        "classification": classify_point(chart, child),
        "chart": child,
    } for child in blow_up(chart, center)]
    return {
        "command": "blowup",
        **_chart_summary(chart),
        "center": {"variables": list(center.variables), "kind": center.kind},
        "children": children,
    }


def _declared_points(job: dict, chart: ChartState) -> dict | None:
    """The points declared on charts of the blow-ups, by chart id.  A
    declared point is compared with the origin of its chart's parent, so
    each key names a chart that a blow-up creates: the root's id followed
    by one or more chart variables, each after a '/'."""
    data = job.get("declared_points")
    if data is None:
        return None
    _object(data, "jobspec.declared_points")
    out = {}
    for chart_id, moves_list in data.items():
        prefix, _, path = chart_id.partition("/")
        if prefix != chart.chart_id or not all(
                v in chart.variables for v in path.split("/")):
            raise InputError(
                f"jobspec.declared_points.{chart_id}: no blow-up creates this "
                f"chart; a key is {chart.chart_id!r} followed by chart "
                "variables, each after a '/', such as "
                f"'{chart.chart_id}/{chart.variables[0]}'")
        if not isinstance(moves_list, list):
            raise InputError(
                f"jobspec.declared_points.{chart_id}: expected a list")
        parsed = []
        for i, moves_data in enumerate(moves_list):
            where = f"jobspec.declared_points.{chart_id}[{i}]"
            _object(moves_data, where)
            parsed.append({
                v: _move_value(chart.field, chart.variables, v, m, f"{where}.{v}")
                for v, m in moves_data.items()
            })
        out[chart_id] = tuple(parsed)
    return out


def _run_resolve(job: dict):
    chart = build_chart(job)
    _check_stratum_orders(job, chart)
    max_steps = _int_option(job, "max_steps", 64, 0)
    label_mode = _options(job).get("label_mode", DEFAULT_LABELS)
    if label_mode not in (DEFAULT_LABELS, FRESH_LABELS):
        raise InputError(
            f"jobspec.options.label_mode: expected {DEFAULT_LABELS!r} or "
            f"{FRESH_LABELS!r}, got {label_mode!r}")
    return resolve(chart, max_steps=max_steps, label_mode=label_mode,
                   declared_points=_declared_points(job, chart))


def report_resolve(job: dict) -> tuple[str, int]:
    """The ``resolve`` report's text and the exit code."""
    trace = _run_resolve(job)
    mono = check_monotone(trace)
    text = _resolve_text(trace, mono) + "\n"
    if trace.status == SCOPE_ERROR:
        return text, EXIT_SCOPE
    if not mono.ok:
        return text, EXIT_MONOTONE
    return text, EXIT_OK


def _stored_trace(job: dict) -> dict:
    """The stored trace of an export job, checked for what rendering reads."""
    where = "jobspec.trace"
    trace = _object(job["trace"], where)
    ids = set()
    for i, chart in enumerate(_expect(trace, "charts", list, where)):
        at = f"{where}.charts[{i}]"
        ids.add(_expect(_object(chart, at), "id", str, at))
        _string_list(chart, "generators", at)
        if not isinstance(chart.get("chart_var", ""), str):
            raise InputError(f"{at}.chart_var: expected a string")
    for i, event in enumerate(_expect(trace, "events", list, where)):
        at = f"{where}.events[{i}]"
        chart_id = _expect(_object(event, at), "chart", str, at)
        if chart_id not in ids:
            raise InputError(f"{at}.chart: unknown chart {chart_id!r}")
        _string_list(_expect(event, "center", dict, at), "variables",
                     f"{at}.center")
        unknown = [c for c in _string_list(event, "created", at)
                   if c not in ids]
        if unknown:
            raise InputError(f"{at}.created: unknown chart(s) {unknown}")
    return trace


def run_export(job: dict, fmt: str) -> str:
    if "trace" in job and "generators" not in job:
        trace = _stored_trace(job)
        if fmt == "json":
            return _report_text(trace) + "\n"
        return trace_to_dot(trace)
    trace = _run_resolve(job)
    if trace.status == SCOPE_ERROR:
        raise ScopeError(trace.error)
    if fmt == "json":
        return trace_text(trace, "\n") + "\n"
    return trace_to_dot(trace)


# ---------------------------------------------------------------------------
# report text
# ---------------------------------------------------------------------------


def _write_container(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of a dict, list, tuple or chart state whose closing
    bracket follows ``newline``, one fragment per scalar entry."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            text = scalar_text(item)
            if text is None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_container(item, inner, out)
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {text}")
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            text = scalar_text(item)
            if text is None:
                out.append(sep)
                _write_container(item, inner, out)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, ChartState):
        out.append(chart_text(value, newline))
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value: Any, newline: str) -> str:
    """``_report_text(value)`` placed where its closing bracket follows
    ``newline``."""
    text = scalar_text(value)
    if text is not None:
        return text
    out: list[str] = []
    _write_container(value, newline, out)
    return "".join(out)


def _report_text(value: Any) -> str:
    """The text the stdlib's ``json.dumps`` writes at indent 2, byte for
    byte, for a value built of dicts with string keys, lists, tuples and
    JSON scalars (and chart states, which ``chart_text`` writes).  The
    stdlib has no C encoder for indented output; this writer calls its C
    string escaper and builds one fragment per entry."""
    return _json_text(value, "\n")


def _resolve_text(trace: ResolutionTrace, mono: MonotonicityReport) -> str:
    """The ``resolve`` report; its ``monotone`` part, violations included,
    goes through the generic writer."""
    monotone = {"ok": mono.ok, "checked": mono.checked,
                "violations": list(mono.violations)}
    return ('{\n  "command": "resolve",\n  "trace": '
            + trace_text(trace, "\n  ") + ',\n  "monotone": '
            + _json_text(monotone, "\n  ") + "\n}")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _read_job(path: str) -> dict:
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read job file {path!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise InputError(f"{source}: the job document is not UTF-8 text: "
                         f"{err.reason} at byte {err.start}") from err
    # a job's numbers are finite and readable: json.loads would take NaN,
    # Infinity and -Infinity, make 1e400 inf and raise on an over-long int
    def refuse(word: str) -> None:
        raise InputError(f"{source}: {word} is not a JSON number")

    def number(text: str) -> float:
        value = float(text)
        if math.isinf(value):
            raise InputError(f"{source}: the number {text} overflows a float")
        return value

    def integer(text: str) -> int:
        digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        if 0 < limit < digits:
            raise InputError(f"{source}: an integer of {digits} digits is "
                             f"over the limit of {limit} digits")
        return int(text)

    try:
        data = json.loads(text, parse_constant=refuse, parse_float=number,
                          parse_int=integer)
    except json.JSONDecodeError as err:
        raise InputError(
            f"{source}: invalid JSON at line {err.lineno} column "
            f"{err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise InputError(f"{source}: the job document nests too deeply") from err
    if not isinstance(data, dict):
        raise InputError(f"{source}: the job document must be a JSON object")
    return data


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise InputError(f"cannot write report file {output!r}: {err}") from err


REPORTS = {"analyze": report_analyze, "polyhedron": report_polyhedron,
           "invariant": report_invariant, "blowup": report_blowup}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfres",
        description="Exact local analysis and resolution of surface "
                    "singularities: polyhedra, invariants, blow-ups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "orders, boundary counts, directrix dimensions, case"),
        ("polyhedron", "prepared projected polyhedron and face invariants"),
        ("invariant", "the full three-part invariant at the origin"),
        ("blowup", "blow up one center and classify the chart origins"),
        ("resolve", "run the resolution loop and check strict decrease"),
        ("export", "render a resolution trace as DOT or JSON"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("job", help="path to a JSON job document, or - for stdin")
        cmd.add_argument("--output", "-o", default=None,
                         help="write the report here instead of stdout")
        if name == "export":
            cmd.add_argument("--format", choices=("dot", "json"),
                             default="dot", help="output format")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    job = _read_job(args.job)
    if args.command == "resolve":
        text, code = report_resolve(job)
    elif args.command == "export":
        text, code = run_export(job, args.format), EXIT_OK
    else:
        report = REPORTS[args.command](job)
        text, code = _report_text(report) + "\n", EXIT_OK
    _emit(text, args.output)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ScopeError as err:
        print(f"scope error: {err}", file=sys.stderr)
        return EXIT_SCOPE
    except LawViolation as err:
        print(f"law violation: {err}", file=sys.stderr)
        return EXIT_MONOTONE
    except BrokenPipeError:
        # the consumer (e.g. `head`) closed stdout; swallow the tail quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
