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
resolution law.  All diagnostics go to stderr; reports to stdout or
the --output path.  Identical jobs produce byte-identical reports.

Infinity is serialized as the string "inf" and non-integral rationals as
"a/b" strings, keeping every report exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Any, Sequence

from .blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    Center,
    ChartState,
    StratumComponent,
    blow_up_chart,
    classify_point,
    locate_point,
    make_chart,
)
from .char_polyhedron import delta, face_numbers, prepare, sigma
from .exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    coefficient_text,
    ord_at,
    parse_polynomial,
    to_string,
)
from .invariant import (
    chart_is_regular,
    classify_case,
    compute_iota,
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
    chart_to_jsonable,
    check_monotone,
    initial_chart,
    max_stratum,
    resolve,
    select_center,
    trace_to_dot,
    trace_to_jsonable,
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
        comps.append(StratumComponent(
            cid=_int_field(entry, "cid", i, where),
            variables=tuple(names),
            label=label,
            conditions=tuple(parse_polynomial(q, field, variables)
                             for q in texts),
            original=original,
        ))
    return tuple(comps)


def build_chart(job: dict) -> ChartState:
    """Turn a parsed job document into a chart state."""
    field = _field_from(_expect(job, "field", dict, "jobspec"))
    variables = tuple(_string_list(job, "variables", "jobspec"))
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
        chart = make_chart(field, variables, generators, u_block, y_block,
                           tuple(boundary))
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
            name = _expect(entry, "generator", str, where)
            if name not in variables:
                raise InputError(
                    f"{where}.generator: {name!r} is not a variable; "
                    "supply an explicit frame for general divisors")
            names.append(name)
        chart = initial_chart(field, variables, texts[0], tuple(names))

    if "stratum" in job:
        chart = replace(
            chart, stratum=_stratum_from(job["stratum"], field, variables))
    elif len(chart.generators) == 1 and chart.stratum is None:
        try:
            chart = replace(chart, stratum=max_stratum(chart))
        except ScopeError:
            pass

    if "point" in job:
        point = _expect(job, "point", dict, "jobspec")
        moves_data = _expect(point, "moves", dict, "jobspec.point")
        moves = {
            v: _move_value(chart.field, chart.variables, v, m,
                           f"jobspec.point.moves.{v}")
            for v, m in moves_data.items()
        }
        chart = locate_point(chart, moves)
    return chart


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
    chart = build_chart(job)
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
                sigma(result.generators, chart.frame, side,
                      budget=sigma_budget))
            for side in (1, 2)
        }
    return report


def report_invariant(job: dict) -> dict:
    chart = build_chart(job)
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
    chart = build_chart(job)
    center = _center_from(job, chart)
    children = []
    for w in center.variables:
        child = blow_up_chart(chart, center, w)
        children.append({
            "chart_var": w,
            "classification": classify_point(chart, child),
            "chart": chart_to_jsonable(child),
        })
    return {
        "command": "blowup",
        **_chart_summary(chart),
        "center": {"variables": list(center.variables), "kind": center.kind},
        "children": children,
    }


def _declared_points(job: dict, chart: ChartState) -> dict | None:
    data = job.get("declared_points")
    if data is None:
        return None
    _object(data, "jobspec.declared_points")
    out = {}
    for chart_id, moves_list in data.items():
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


def report_resolve(job: dict) -> tuple[dict, int]:
    trace = _run_resolve(job)
    mono = check_monotone(trace)
    report = {
        "command": "resolve",
        "trace": trace_to_jsonable(trace),
        "monotone": {
            "ok": mono.ok,
            "checked": mono.checked,
            "violations": list(mono.violations),
        },
    }
    if trace.status == SCOPE_ERROR:
        return report, EXIT_SCOPE
    if not mono.ok:
        return report, EXIT_MONOTONE
    return report, EXIT_OK


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
        _expect(_object(event, at), "chart", str, at)
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
            return json.dumps(trace, indent=2) + "\n"
        return trace_to_dot(trace)
    trace = _run_resolve(job)
    if trace.status == SCOPE_ERROR:
        raise ScopeError(trace.error)
    if fmt == "json":
        return json.dumps(trace_to_jsonable(trace), indent=2) + "\n"
    return trace_to_dot(trace)


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
    try:
        data = json.loads(text)
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
    if args.command == "analyze":
        report, code = report_analyze(job), EXIT_OK
    elif args.command == "polyhedron":
        report, code = report_polyhedron(job), EXIT_OK
    elif args.command == "invariant":
        report, code = report_invariant(job), EXIT_OK
    elif args.command == "blowup":
        report, code = report_blowup(job), EXIT_OK
    elif args.command == "resolve":
        report, code = report_resolve(job)
    else:
        _emit(run_export(job, args.format), args.output)
        return EXIT_OK
    _emit(json.dumps(report, indent=2) + "\n", args.output)
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
