"""Record or compare the bytes of a fixed set of ``surfres`` CLI runs.

Every run calls ``surfres.cli.main`` in this process with a job document on
stdin, and is stored as the sha256 of the job, its exit code, stdout and
stderr.  The run set:

* the four named jobs of the acceptance corpus and the surfaces of
  ``perfbench/pool.json`` whose ``resolve_s`` is below 0.4, each through
  ``resolve``, ``export --format dot``, ``export --format json``,
  ``invariant`` and ``analyze``;
* ``polyhedron`` at budgets 8 and 24 on every chart of the four named
  traces, in the chart's own frame and in its directrix-adapted frame, the
  jobs of ``tests/test_sigma_exits.py::named_chart_jobs``;
* ``polyhedron`` at budget 8 on every chart of the traces of six
  finite-field pool surfaces (``FIELD_CHART_SURFACES``, two each over F_2,
  F_3 and F_5, whose charts take the most solving steps), in the chart's
  own frame and in its directrix-adapted frame, so the witnesses chosen
  over F_p are in the bytes;
* ``polyhedron`` at budgets 8 and 24 on the 32 seeded random charts of
  ``perfbench``'s ``face-sweep`` workload at its default seed, in the
  directrix-adapted frame that the sweep prepares in, so that the runs
  modulo a box of the benchmark's seeded charts are in the bytes (4 over
  F_2 at each budget, and one over F_3 in sigma's re-preparation);
* ``analyze`` and ``invariant`` on every chart of the four named traces,
  and ``blowup`` on every such chart with a non-empty stratum, each job
  rebuilt from the chart as ``export --format json`` writes it (frame,
  boundary and stratum included): the jobs of ``perfbench``'s
  ``chart-queries`` workload;
* the jobs of ``tests/test_cli_inputs.py::point_jobs``, which locate a point
  through ``point`` (a coordinate or a ``root_of`` condition) or through
  ``declared_points``, each under the command its test runs;
* ``export --format json`` and ``export --format dot`` of each named job's
  stored trace: its ``export --format json`` output fed back as
  ``{"trace": ...}``;
* ``analyze`` and ``invariant`` of the frameless ``boundary_jobs``, whose
  initial forms sit on both sides of the characteristic, where the
  directrix changes from the linear derivatives to the ridge: F_5 at
  degrees 4, 5 and 6, F_3 at 2, 3 and 4, F_2(t) and F_3(t) at p - 1 and p,
  and (x+y+z)^10 and (x+y+z)^11 over Q, at and over ``MAX_DIRECTRIX_DEGREE``;
* ``polyhedron`` at budget 8 of the 25 ``boundary_jobs`` and of the four
  named jobs as they stand, so every job but the two-divisor chart has its
  frame inferred by ``cli.build_chart``;
* ``blowup`` without a center of every surface job above, where
  ``cli.build_chart`` computes the stratum and ``select_center`` picks the
  center;
* ``blowup`` of each named job at the closed point, its variables listed in
  reverse order, so the children come out in an order other than the
  frame's;
* ``resolve``, ``export --format json`` and ``export --format dot`` of each
  named job at ``max_steps`` 0, 1 and 3: partial traces with status
  ``step_limit``, whose DOT has unfinished leaves;
* the ``divisor_jobs``, each under the commands it lists, which put
  inputs on the general side of each coordinate reading: framed jobs with
  an old boundary divisor that is not a coordinate (``analyze`` and
  ``invariant``; ``resolve``, both exports and ``blowup`` with and
  without a center for one of them), coordinate boundary divisors with a
  unit coefficient such as ``-y`` and ``2*z`` (``resolve`` and
  ``blowup``), monomial initial forms of degree at least p (every surface
  command) and a two-generator chart (``analyze``, ``invariant``,
  ``blowup`` and ``polyhedron``);
* ``polyhedron`` at budget 8 and sigma budget 4 of the
  ``straightening_jobs`` in the frame (u1, u2 | y): the seeded slide
  generators of ``tests/test_no_shadow_variables.py`` over F_2, F_3 and
  F_2(t), and over F_3 slides whose coefficient lies in F_9, reached by a
  ``root_of`` point move, so that sigma's straightenings beyond Q are in
  the bytes;
* ``polyhedron`` at budgets 8 and 24 and sigma budget 4 of the two
  generators ``NORMALIZING_GENERATORS`` in the frame (u1, u2 | y) over Q,
  F_2, F_3 and F_2(t), whose preparation normalizes the second generator
  at a vertex;
* the three frameless named jobs with the old boundary divisors V(z),
  V(y) and both, which ``resolution_driver.root_chart`` installs, each
  through ``resolve``, ``export --format dot``, ``export --format json``,
  ``invariant``, ``analyze`` and ``blowup``;
* ``analyze``, ``invariant`` and (where a frame is given or inferred)
  ``polyhedron`` of the ``linear_algebra_jobs``, which put the exact linear
  algebra on fields beyond F_p: over F_9, reached by a ``root_of`` point
  move, directrices read off the linear derivatives whose forms are not
  coordinates, so that adapting the frame moves coordinates by F_9
  multiples, and old boundary divisors that are not coordinates, folded
  into the directrix by a general row reduction; over F_2(t) and F_3(t)
  the same two, on both directrix paths;
* ``resolve``, ``export --format json`` and ``export --format dot`` of
  ``CENSUS_SAMPLE`` jobs of ``tools/census.py`` that ``resolve`` ends with
  exit 0, the first in a seeded order of the census: surfaces with an old
  boundary from the start, a scaled coefficient or a linear change, on
  which ``resolve`` refines by old components and searches the stratum.

The chart jobs are built by this tree's library, so a tree that builds a
chart or its adapted frame differently gives a different digest, or a run
key that the other side lacks; ``--compare`` reports both.

    python3 tools/cli_bytes.py --record before.json
    python3 tools/cli_bytes.py --compare before.json

``--compare`` prints every run whose bytes differ, or that is missing on
one side, and exits 1 if there is any.  The script reads ``perfbench/`` and
writes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import corpus  # noqa: E402  (perfbench/corpus.py)
import ops  # noqa: E402
import workloads  # noqa: E402
from test_cli_inputs import point_jobs  # noqa: E402
from test_no_shadow_variables import CONSTRAINT_FIELDS, slide_generator  # noqa: E402
from test_sigma_exits import chart_jobs, named_chart_jobs  # noqa: E402

from surfres import cli  # noqa: E402
from surfres.exact_algebra import FieldDescriptor, to_string  # noqa: E402
from surfres.resolution_driver import initial_chart, resolve  # noqa: E402

POOL_RESOLVE_S = 0.4
SURFACE_COMMANDS = (("resolve",), ("export", "--format", "dot"),
                    ("export", "--format", "json"), ("invariant",), ("analyze",))
STORED_COMMANDS = (("export", "--format", "json"), ("export", "--format", "dot"))
CHART_BUDGETS = (8, 24)
BOUNDARY_COMMANDS = (("analyze",), ("invariant",))
PARTIAL_COMMANDS = (("resolve",), ("export", "--format", "json"),
                    ("export", "--format", "dot"))
PARTIAL_STEPS = (0, 1, 3)
# pool surfaces whose charts get ``polyhedron`` runs over their own field
FIELD_CHART_SURFACES = (
    ("F2", "x^2 + y^2*z^3 + x^1*y^2*z^1"), ("F2", "x^3 + y^3*z^2 + x^1*y^3*z^1"),
    ("F3", "x^3 + y^1*z^4 + x^2*y^3*z^2"), ("F3", "x^2 + z^3 + x^1*y^3"),
    ("F5", "x^2 + y^3*z^4 + x^1*y^2"), ("F5", "x^2 + z^3 + x^1*y^3"),
)
FRAMELESS_BUDGET = 8
# field document and initial-form degrees of the boundary jobs
BOUNDARY_DEGREES = (
    ({"kind": "prime_field", "characteristic": 5}, (4, 5, 6)),
    ({"kind": "prime_field", "characteristic": 3}, (2, 3, 4)),
    ({"kind": "rational_functions", "characteristic": 2, "parameter": "t"},
     (1, 2)),
    ({"kind": "rational_functions", "characteristic": 3, "parameter": "t"},
     (2, 3)),
)

# job documents of the fields of the slide generators, and how many of each
SLIDE_FIELDS = {
    "F2": {"kind": "prime_field", "characteristic": 2},
    "F3": {"kind": "prime_field", "characteristic": 3},
    "F2(t)": {"kind": "rational_functions", "characteristic": 2, "parameter": "t"},
}
SLIDES_PER_FIELD = 40
F9_SLIDES = 24
# the polyhedron and sigma budgets of the straightening jobs: over F_2(t) a
# straightening can double the size of the next slide's coefficient, so the
# sigma budget stays small
STRAIGHTENING_OPTIONS = {"budget": 8, "sigma_budget": 4}
# two generators whose preparation cancels u1^2*y^2 of the second with the
# first at the vertex (2, 0)
NORMALIZING_GENERATORS = ["y^2 + u1^9 + u2^9", "y^3 + u1^2*y^2 + u2^7"]
# the old coordinate boundary divisors of the frameless boundary jobs
FRAMELESS_BOUNDARIES = (("z",), ("y",), ("z", "y"))
# how many exit-0 census jobs get runs
CENSUS_SAMPLE = 40
# generators over F_3 whose initial form at the point y = s, s^2 + 1 = 0, is
# (x + s*z)^2 + y^2 (up to units): two directrix forms, one not a coordinate
F9_FORM_GENERATORS = ("(x + y*z)^2 + y^2*(y^2+1)^2",
                      "(x + y*z)^2 + y^2*(y^2+1)^2 + z^5",
                      "(x + y*z)^2 + y^2*(y^2+1)^2 + z^3*y",
                      "(x + y*z + z^2)^2 + y^2*(y^2+1)^2")
# generators over F_p(t) whose directrix form is not a coordinate
RATFUNC_FORM_GENERATORS = ("(x + t*y)^2 + z^3", "(x + t*y + z)^3 + y^5",
                           "(x + t*y)^3 + z^4 + y^5")


def run_cli(args: tuple[str, ...], job: dict) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI run on the job; an
    uncaught exception counts as exit 1 with its last line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([args[0], "-", *args[1:]])
            except Exception as exc:  # a traceback is part of the bytes too
                code = 1
                err.write("".join(traceback.format_exception_only(exc)))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_digest(args: tuple[str, ...], job: dict) -> str:
    """The sha256 of the job, exit code, stdout and stderr of one CLI run."""
    blob = json.dumps([job, *run_cli(args, job)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def surface_jobs() -> dict[str, dict]:
    jobs = dict(corpus.NAMED_JOBS)
    for s in corpus.load_pool():
        if s["resolve_s"] < POOL_RESOLVE_S:
            jobs[f"{s['field']}:{s['text']}"] = corpus.surface_job(
                s["field"], s["text"])
    return jobs


def field_chart_jobs() -> dict[str, dict]:
    """The ``chart_jobs`` of the traces of ``FIELD_CHART_SURFACES``."""
    jobs = {}
    for name, text in FIELD_CHART_SURFACES:
        field = corpus.FIELDS[name]
        trace = resolve(initial_chart(FieldDescriptor.prime_field(
            field["characteristic"]), tuple(corpus.XYZ), text))
        jobs.update(chart_jobs({f"{name}:{text}": trace}, field))
    return jobs


def sweep_chart_jobs() -> dict[str, dict]:
    """The ``polyhedron`` job of each seeded random chart of the
    ``face-sweep`` workload at its default seed, in its adapted frame, keyed
    by the workload's op key (``sweep:<field>:<surface>:<chart id>``)."""
    jobs = {}
    for key, chart in workloads._random_charts(corpus.DEFAULT_SEED):
        gens, frame = ops.adapted(chart)
        jobs[key] = {"field": corpus.FIELDS[key.split(":")[1]],
                     "variables": list(chart.variables),
                     "generators": [to_string(g) for g in gens],
                     "frame": {"u": list(frame.u_block),
                               "y": list(frame.y_block)}}
    return jobs


def boundary_jobs() -> dict[str, dict]:
    """Frameless one-generator jobs whose initial form has a fixed degree d:
    a power of a linear form, a form in all three variables (d > 1), and
    over F_p(t) one with a coefficient that is not a p-th power."""
    jobs = {}
    for field, degrees in BOUNDARY_DEGREES:
        for d in degrees:
            texts = [f"(x+y)^{d} + z^{d + 1}"]
            if d > 1:
                texts.append(f"x^{d} + y^{d} + x*z^{d - 1}")
            if field["kind"] == "rational_functions":
                texts.append(f"x^{d} + t*y^{d} + z^{d + 1}")
            for text in texts:
                jobs[f"{field['kind']} {field['characteristic']}:{text}"] = {
                    "field": field, "variables": corpus.XYZ,
                    "generators": [text]}
    for d in (10, 11):
        text = f"(x+y+z)^{d}"
        jobs[f"rationals:{text}"] = corpus.surface_job("Q", text)
    return jobs


def divisor_jobs() -> dict[str, tuple[tuple[tuple[str, ...], ...], dict]]:
    """Jobs on the general side of the coordinate readings of boundary
    divisors, directrix forms and monomial initial forms, keyed by name
    and paired with the commands each runs under."""
    surface = {"field": {"kind": "rationals"}, "variables": corpus.XYZ,
               "generators": ["x^2 + y^3*z^4"],
               "frame": {"u": ["y", "z"], "y": ["x"]}}
    old = {"status": "old"}
    general = (("analyze",), ("invariant",))
    not_coordinate = ("y + z", "y + z^2", "x + y")
    jobs = {f"old {g}": (general, dict(
        surface, boundary=[dict(old, generator=g)])) for g in not_coordinate}
    jobs["old z, y - 2*z"] = (general, dict(surface, boundary=[
        dict(old, generator="z"), dict(old, generator="y - 2*z")]))
    jobs["old y + z^2, every command"] = (
        SURFACE_COMMANDS[:3] + (("blowup",),),
        dict(surface, boundary=[dict(old, generator="y + z^2")]))
    jobs["old y + z^2, center"] = ((("blowup",),), dict(
        surface, boundary=[dict(old, generator="y + z^2")],
        center={"variables": corpus.XYZ}))
    unit = (("resolve",), ("blowup",))
    for status in ("old", "new"):
        jobs[f"-y old, 2*z {status}"] = (unit, dict(surface, boundary=[
            dict(old, generator="-y"), {"generator": "2*z", "status": status}]))
    whirl = corpus.NAMED_JOBS["two-divisor-chart"]
    jobs["two-divisor chart, -u1, 2*u2"] = (unit, dict(whirl, boundary=[
        dict(b, generator=g) for b, g in zip(whirl["boundary"],
                                             ("-u1", "2*u2"))]))
    for name, text in (("F2", "x^2*y + z^5"), ("F3", "x^3*y + z^4")):
        jobs[f"{name}:{text}"] = (SURFACE_COMMANDS,
                                  corpus.surface_job(name, text))
    two = {"field": {"kind": "rationals"}, "variables": corpus.XYZ,
           "generators": ["x^2 + y^3 + z^5", "y^2 + x*z"],
           "frame": {"u": ["z"], "y": ["x", "y"]},
           "stratum": [{"variables": corpus.XYZ, "label": 0}]}
    commands = general + (("blowup",),)
    jobs["two generators"] = (commands + (("polyhedron",),), two)
    jobs["two generators, old z"] = (commands, dict(
        two, boundary=[dict(old, generator="z")]))
    return jobs


def straightening_jobs() -> dict[str, dict]:
    """``polyhedron`` jobs in the frame (u1, u2 | y) whose faces sigma
    may straighten beyond Q: ``slide_generator`` over F_2, F_3 and F_2(t),
    and over F_3 the generator y^nu + u1^a (u2^2 + 1 + c u1^m)^k y^b at the
    point u2 = s with s^2 + 1 = 0, where u2^2 + 1 becomes u2^2 + 2 s u2 and
    the slide u2 <- u2 - c u1^m / (2 s) has its coefficient in F_9 only.
    Sigma straightens at least one side in 76 of the 144 jobs (14 over
    F_2, 18 over F_3, 26 over F_2(t) and 18 over F_9)."""
    frame = {"u": ["u1", "u2"], "y": ["y"]}
    base = {"variables": ["u1", "u2", "y"], "frame": frame,
            "options": STRAIGHTENING_OPTIONS}
    jobs = {}
    for name, field in SLIDE_FIELDS.items():
        rng = random.Random(f"bytes-{name}")
        for i in range(SLIDES_PER_FIELD):
            g = slide_generator(rng, CONSTRAINT_FIELDS[name], rng.randint(1, 3))
            jobs[f"{name} slide {i}"] = dict(base, field=field,
                                             generators=[to_string(g)])
    rng = random.Random("bytes-F9")
    point = {"moves": {"u2": {"root_of": "s^2+1"}}}
    for i in range(F9_SLIDES):
        nu = rng.randint(2, 3)
        a, m, k = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
        text = (f"y^{nu} + u1^{a}*(u2^2 + 1 + {rng.randint(1, 2)}*u1^{m})^{k}"
                f"*y^{rng.randint(0, nu - 1)}")
        jobs[f"F9 slide {i}"] = dict(base, field=SLIDE_FIELDS["F3"],
                                     generators=[text], point=point)
    return jobs


def normalizing_jobs() -> dict[str, dict]:
    """``polyhedron`` jobs of ``NORMALIZING_GENERATORS`` in the frame
    (u1, u2 | y), over Q and the fields of the slides, at each of
    ``CHART_BUDGETS`` with sigma budget 4."""
    base = {"variables": ["u1", "u2", "y"], "generators": NORMALIZING_GENERATORS,
            "frame": {"u": ["u1", "u2"], "y": ["y"]}}
    jobs = {}
    for name, field in {"Q": {"kind": "rationals"}, **SLIDE_FIELDS}.items():
        for budget in CHART_BUDGETS:
            options = dict(STRAIGHTENING_OPTIONS, budget=budget)
            jobs[f"{name} budget {budget}"] = dict(base, field=field,
                                                   options=options)
    return jobs


def linear_algebra_jobs() -> dict[str, tuple[tuple[tuple[str, ...], ...], dict]]:
    """Jobs whose directrix, adapted frame or old-boundary directrix row
    reduces over F_9, F_2(t) or F_3(t) with forms that are not coordinates,
    keyed by name and paired with the commands each runs under."""
    every = BOUNDARY_COMMANDS + (("polyhedron",),)
    f3 = {"kind": "prime_field", "characteristic": 3}
    ratfuncs = {"F2(t)": SLIDE_FIELDS["F2(t)"], "F3(t)": {
        "kind": "rational_functions", "characteristic": 3, "parameter": "t"}}
    jobs = {}
    at_s = {"moves": {"y": {"root_of": "s^2+1"}}}
    for text in F9_FORM_GENERATORS:
        job = {"field": f3, "variables": corpus.XYZ, "generators": [text],
               "point": at_s}
        jobs[f"F9 {text}"] = (every, job)
        jobs[f"F9 framed {text}"] = (every, dict(
            job, frame={"u": ["z"], "y": ["x", "y"]}))
    surface = {"variables": corpus.XYZ, "frame": {"u": ["y", "z"], "y": ["x"]}}
    at_s = {"moves": {"z": {"root_of": "s^2+1"}}}
    for g in ("y + z*x", "y + x", "y + z^2*x"):
        jobs[f"F9 old {g}"] = (every, dict(
            surface, field=f3, generators=["x^2 + y^3"], point=at_s,
            boundary=[{"generator": g, "status": "old"}]))
    for name, field in ratfuncs.items():
        for text in RATFUNC_FORM_GENERATORS:
            jobs[f"{name} {text}"] = (BOUNDARY_COMMANDS, {
                "field": field, "variables": corpus.XYZ, "generators": [text]})
        for g in ("y + t*z", "y + z"):
            jobs[f"{name} old {g}"] = (every, dict(
                surface, field=field, generators=["x^2 + y^3*z^4"],
                boundary=[{"generator": g, "status": "old"}]))
    return jobs


def frameless_boundary_jobs() -> dict[str, dict]:
    """The named jobs without a frame, each with the old coordinate
    boundary divisors of ``FRAMELESS_BOUNDARIES``."""
    return {f"{key}, old {' '.join(names)}": dict(
                job, boundary=[{"generator": v} for v in names])
            for key, job in corpus.NAMED_JOBS.items() if "frame" not in job
            for names in FRAMELESS_BOUNDARIES}


def census_sample() -> dict[str, dict]:
    """The first ``CENSUS_SAMPLE`` census jobs, in a seeded order, that
    ``resolve`` ends with exit 0."""
    from census import census_jobs  # tools/census.py imports this module
    jobs = census_jobs()
    random.Random("bytes-census").shuffle(jobs)
    picked = {}
    for _kind, key, job in jobs:
        if run_cli(("resolve",), job)[0] == 0:
            picked[key] = job
            if len(picked) == CENSUS_SAMPLE:
                break
    return picked


def exported_chart_job(chart: dict, field: dict) -> dict:
    """The job that rebuilds one chart of an exported trace, stratum
    included."""
    return {
        "field": field,
        "variables": chart["variables"],
        "generators": chart["generators"],
        "frame": {"u": chart["u_block"], "y": chart["y_block"]},
        "boundary": [{"generator": b["generator"], "status": b["status"],
                      "birth": b["birth_step"], "cid": b["cid"]}
                     for b in chart["boundary"]],
        "stratum": [{key: c[key] for key in
                     ("variables", "label", "cid", "original", "conditions")}
                    for c in chart["stratum"]],
    }


def named_traces() -> dict[str, dict]:
    """Each named job's trace as ``export --format json`` writes it."""
    traces = {}
    for name, job in corpus.NAMED_JOBS.items():
        code, out, _err = run_cli(("export", "--format", "json"), job)
        if code:
            raise SystemExit(f"export of {name} exited {code}")
        traces[name] = json.loads(out)
    return traces


def named_trace_chart_jobs(traces: dict[str, dict]) -> dict[str, dict]:
    """The job of every named-trace chart, keyed by trace name and chart
    id."""
    return {f"{name}:{chart['id']}": exported_chart_job(
                chart, corpus.NAMED_JOBS[name]["field"])
            for name, trace in traces.items() for chart in trace["charts"]}


def blowup_jobs(traces: dict[str, dict]) -> dict[str, dict]:
    """The ``blowup`` job of every named-trace chart with a non-empty
    stratum, keyed by trace name and chart id."""
    return {key: job for key, job in named_trace_chart_jobs(traces).items()
            if job["stratum"]}


def digests() -> dict[str, str]:
    out = {}
    for key, job in surface_jobs().items():
        for args in SURFACE_COMMANDS:
            out[f"{' '.join(args)} | {key}"] = run_digest(args, job)
    for key, job in named_chart_jobs().items():
        for budget in CHART_BUDGETS:
            out[f"polyhedron budget {budget} | {key}"] = run_digest(
                ("polyhedron",), dict(job, options={"budget": budget}))
    for key, job in field_chart_jobs().items():
        out[f"polyhedron budget 8 | field chart {key}"] = run_digest(
            ("polyhedron",), job)
    for key, job in sweep_chart_jobs().items():
        for budget in CHART_BUDGETS:
            out[f"polyhedron budget {budget} | {key}"] = run_digest(
                ("polyhedron",), dict(job, options={"budget": budget}))
    traces = named_traces()
    for key, job in blowup_jobs(traces).items():
        out[f"blowup | {key}"] = run_digest(("blowup",), job)
    for key, job in named_trace_chart_jobs(traces).items():
        for args in BOUNDARY_COMMANDS:
            out[f"{' '.join(args)} | chart {key}"] = run_digest(args, job)
    for key, trace in traces.items():
        for args in STORED_COMMANDS:
            out[f"{' '.join(args)} | stored {key}"] = run_digest(
                args, {"trace": trace})
    for key, (command, job) in point_jobs().items():
        out[f"{command} | point {key}"] = run_digest((command,), job)
    boundary = boundary_jobs()
    for key, job in boundary.items():
        for args in BOUNDARY_COMMANDS:
            out[f"{' '.join(args)} | boundary {key}"] = run_digest(args, job)
    budget = {"options": {"budget": FRAMELESS_BUDGET}}
    for key, job in boundary.items():
        out[f"polyhedron budget {FRAMELESS_BUDGET} | boundary {key}"] = \
            run_digest(("polyhedron",), dict(job, **budget))
    for key, job in corpus.NAMED_JOBS.items():
        out[f"polyhedron budget {FRAMELESS_BUDGET} | named {key}"] = \
            run_digest(("polyhedron",), dict(job, **budget))
    for key, job in surface_jobs().items():
        out[f"blowup | surface {key}"] = run_digest(("blowup",), job)
    for key, job in corpus.NAMED_JOBS.items():
        center = {"variables": job["variables"][::-1]}
        out[f"blowup reversed point | {key}"] = run_digest(
            ("blowup",), dict(job, center=center))
    for key, job in corpus.NAMED_JOBS.items():
        for steps in PARTIAL_STEPS:
            partial = dict(job, options={**job.get("options", {}),
                                         "max_steps": steps})
            for args in PARTIAL_COMMANDS:
                out[f"{' '.join(args)} max_steps {steps} | {key}"] = \
                    run_digest(args, partial)
    for key, (commands, job) in divisor_jobs().items():
        for args in commands:
            out[f"{' '.join(args)} | divisor {key}"] = run_digest(args, job)
    for key, job in straightening_jobs().items():
        out[f"polyhedron | straightening {key}"] = run_digest(
            ("polyhedron",), job)
    for key, job in normalizing_jobs().items():
        out[f"polyhedron | normalizing {key}"] = run_digest(("polyhedron",), job)
    for key, (commands, job) in linear_algebra_jobs().items():
        for args in commands:
            out[f"{' '.join(args)} | linear algebra {key}"] = run_digest(
                args, job)
    for key, job in frameless_boundary_jobs().items():
        for args in SURFACE_COMMANDS + (("blowup",),):
            out[f"{' '.join(args)} | frameless boundary {key}"] = run_digest(
                args, job)
    for key, job in census_sample().items():
        for args in PARTIAL_COMMANDS:
            out[f"{' '.join(args)} | census {key}"] = run_digest(args, job)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="PATH", help="write the digests here")
    mode.add_argument("--compare", metavar="PATH",
                      help="compare with the digests recorded here")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    now = digests()
    elapsed = time.perf_counter() - start
    if args.record:
        Path(args.record).write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(now)} runs in {elapsed:.0f} s")
        return 0
    before = json.loads(Path(args.compare).read_text())
    differ = sorted(k for k in before.keys() | now.keys()
                    if before.get(k) != now.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(now)} runs in {elapsed:.0f} s, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
