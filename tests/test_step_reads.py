"""One resolution step derives each per-chart value once.

Five reads take the place of values that a step used to derive again:

* a center's permissibility verdict is computed once per chart state and
  read from that state's table of verdicts (``center_verdict``) by
  ``select_center``, ``classify_case`` and ``blow_up``;
* after the boundary reset, the stored state's stratum components are the
  child's, refined by the new set of old components
  (``resolution_driver._reset_components``);
* ``ChartState.nu`` is read off ``ChartState.orders``;
* ``_hasse_constraints`` forms every derivative in one pass over the terms
  (``exact_algebra.hasse_derivatives``);
* ``_side_tuple`` reads the face numbers of the first face off the
  ``SigmaResult`` (``first_face``).

Each is checked against its earlier body, kept in ``tests/oracles.py``, on
every read that ``resolve`` makes on the 54 traces of the acceptance
corpus, on every surface of ``perfbench/pool.json`` and on every job of the
census (``tools/census.py``), scope-error traces included.  Each center's
verdict must also be computed at most once per chart state of a run (a
center of a shape the chart refuses has none: ``permissible_check``
raises on it).
The one-pass derivatives are compared on seeded polynomials over Q, F_2,
F_3, F_5, F_4 and F_3(t) too, up to orders past the characteristic.
``replace_chart`` checks a copy again only when it changes a field that
``ChartState.__post_init__`` checks, and ``blow_up`` builds the exceptional
divisor without re-running the check of ``BoundaryComponent``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from surfres import blowup_engine, cli, invariant, resolution_driver
from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    Center,
    ChartState,
    PermissibilityReport,
    blow_up,
    center_verdict,
    make_chart,
    replace_chart,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    hasse_derivatives,
    parse_polynomial,
)
from surfres.local_frame import (
    NEW,
    BoundaryComponent,
    Frame,
    unchecked_component,
)
from surfres.resolution_driver import (
    RESOLVED,
    SCOPE_ERROR,
    _hasse_constraints,
    initial_chart,
    resolve,
)

import oracles
from test_acceptance import random_surface
from test_blow_up_once import named_roots

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
POOL_FIELDS = {"Q": FieldDescriptor.rationals(),
               **{f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 3, 5)}}
QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")


# -- every resolution of the corpus, the pool and the census, with each read
#    checked as it is made ------------------------------------------------------

def corpus_runs():
    """The runs of the acceptance corpus: the four named jobs, then the
    random surfaces drawn until 50 resolve, scope errors included."""
    for root, options in named_roots().values():
        yield lambda root=root, options=options: resolve(root, **options)
    rng = random.Random(20260823)
    seen, resolved = set(), 0
    while resolved < 50:
        name, field, text = random_surface(rng)
        if (name, text) in seen:
            continue
        seen.add((name, text))
        trace = resolve(initial_chart(field, XYZ, text))
        resolved += trace.status == RESOLVED
        yield lambda trace=trace: trace


def pool_runs():
    for s in json.loads(POOL.read_text())["surfaces"]:
        yield lambda s=s: resolve(initial_chart(POOL_FIELDS[s["field"]], XYZ,
                                                s["text"]))


def census_runs():
    census = oracles.repo_module("tools", "census")
    for _kind, _key, job in census.census_jobs():
        yield lambda job=job: cli._run_resolve(job)


class Reads:
    """What the checked reads saw: a list of each mismatch, and counts."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.counts: Counter = Counter()
        self.run = 0
        # (run, chart state, center) -> permissible_check bodies
        self.bodies: Counter = Counter()

    def check(self, kind: str, ok: bool, where: str) -> None:
        self.counts[kind] += 1
        if not ok:
            self.mismatches.append(f"{kind}: {where}")


@pytest.fixture(scope="module")
def checked_runs():
    """Every corpus, pool and census run, with each read that the step
    makes compared with its oracle: the traces and the reads."""
    reads = Reads()
    verdict = blowup_engine.center_verdict
    check = blowup_engine.permissible_check
    reset = resolution_driver._reset_components
    constraints = resolution_driver._hasse_constraints
    sigma = invariant.sigma_search

    def checked_verdict(chart, center, verdicts=None):
        had = verdicts is not None and center in verdicts
        report = verdict(chart, center, verdicts)
        reads.check("verdict", report == oracles.fresh_verdict(chart, center),
                    f"{chart.chart_id} {center}")
        reads.counts["handed on"] += had
        return report

    def counted_check(chart, center):
        # a center of a shape the chart refuses raises: it has no verdict
        report = check(chart, center)
        state = (chart.chart_id, chart.generators, chart.variables,
                 chart.frame)
        reads.bodies[reads.run, state, center] += 1
        return report

    def checked_reset(chart, fresh):
        got = reset(chart, fresh)
        reads.check("reset", got == oracles.reset_components(chart),
                    chart.chart_id)
        reads.counts["reset changed"] += got != fresh
        return got

    def checked_constraints(f, order):
        got = constraints(f, order)
        reads.check("hasse", got == oracles.hasse_constraints(f, order),
                    f"{f} {order}")
        return got

    def checked_sigma(prepared, frame, side, *args, **kwargs):
        result = sigma(prepared, frame, side, *args, **kwargs)
        reads.check("first face",
                    result.first_face == oracles.first_face(prepared, side),
                    str(prepared.polyhedron.vertices))
        return result

    traces = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blowup_engine, "center_verdict", checked_verdict)
        mp.setattr(blowup_engine, "permissible_check", counted_check)
        mp.setattr(resolution_driver, "permissible_check", counted_check)
        mp.setattr(resolution_driver, "_reset_components", checked_reset)
        mp.setattr(resolution_driver, "_hasse_constraints",
                   checked_constraints)
        mp.setattr(invariant, "sigma_search", checked_sigma)
        for runs in (corpus_runs(), pool_runs(), census_runs()):
            for run in runs:
                reads.run += 1
                try:
                    traces.append(run())
                except (InputError, ScopeError):
                    continue  # refused before any trace exists
    return traces, reads


def test_every_read_of_a_step_matches_its_oracle(checked_runs):
    traces, reads = checked_runs
    assert reads.mismatches == []
    assert len(traces) > 900
    assert sum(t.status == SCOPE_ERROR for t in traces) > 100
    counts = reads.counts
    assert counts["verdict"] > 20000 and counts["handed on"] > 10000
    assert counts["hasse"] > 2000 and counts["first face"] > 5000
    # some resets drop a component that the new old components cut
    assert counts["reset"] > 10000 and counts["reset changed"] > 100


def test_each_center_is_checked_once_per_chart_state(checked_runs):
    _traces, reads = checked_runs
    assert reads.bodies and max(reads.bodies.values()) == 1


def test_every_chart_reads_nu_off_its_orders(checked_runs):
    traces, _reads = checked_runs
    charts = 0
    for trace in traces:
        for chart in trace.charts.values():
            twin = ChartState(chart.chart_id, chart.field, chart.variables,
                              chart.generators, chart.frame)
            assert twin.nu == oracles.nu_of_generators(chart), chart.chart_id
            assert chart.nu == twin.nu, chart.chart_id
            charts += 1
    assert charts > 20000


# -- the verdict table ------------------------------------------------------------

def test_a_table_holds_one_verdict_per_center():
    f = parse_polynomial("x^2 + y^3*z^3", QQ, XYZ)
    chart = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",))
    curves = [Center(("x", "y"), COORDINATE_CURVE),
              Center(("x", "z"), COORDINATE_CURVE)]
    point = Center(XYZ, CLOSED_POINT)
    table: dict = {}
    for center in [*curves, point, *curves, point]:
        got = center_verdict(chart, center, table)
        assert got == oracles.fresh_verdict(chart, center)
        assert table[center] is got
    assert list(table) == [*curves, point]
    # a verdict in the table is what is read, whatever it says
    forced = PermissibilityReport(False, ("forced",))
    assert center_verdict(chart, point, {point: forced}) is forced
    assert center_verdict(chart, point, {curves[0]: forced}).ok


# -- one-pass Hasse derivatives ----------------------------------------------------

F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
F3T = FieldDescriptor.rational_functions(3, "t")
FIELDS = {"Q": QQ, **{f"F{p}": FieldDescriptor.prime_field(p)
                      for p in (2, 3, 5)}, "F4": F4, "F3(t)": F3T}


def random_polynomial(rng, field, variables) -> Polynomial:
    coefficients = [c for c in (field.from_int(k) for k in range(1, 7)) if c]
    if field is F3T:
        coefficients.append(field.transcendental())
    terms = {}
    for _ in range(rng.randint(1, 6)):
        vec = tuple(rng.randint(0, 7) for _ in variables)
        terms[vec] = rng.choice(coefficients)
    return Polynomial.from_vectors(field, variables, terms)


@pytest.mark.parametrize("name", list(FIELDS))
def test_one_pass_derivatives_match_one_pass_per_derivative(name):
    field = FIELDS[name]
    rng = random.Random(f"hasse:{name}")
    for variables in (XYZ, ("y", "x"), ("u1", "u2", "y", "z")):
        for _ in range(25):
            f = random_polynomial(rng, field, variables)
            for order in range(0, 10):
                assert _hasse_constraints(f, order) == \
                    oracles.hasse_constraints(f, order), (f, order)
    # every derivative of x^p is zero but the 0-th and the p-th
    f = parse_polynomial("x^4", F4, XYZ)
    assert hasse_derivatives(f, 4) == [f]


# -- the copies and the exceptional divisor ---------------------------------------

def counted_checks(monkeypatch) -> Counter:
    counts: Counter = Counter()
    check = ChartState.__post_init__

    def counting(self):
        counts["checks"] += 1
        check(self)
    monkeypatch.setattr(ChartState, "__post_init__", counting)
    return counts


def test_a_copy_is_checked_again_only_when_a_checked_field_changes(monkeypatch):
    f = parse_polynomial("x^2 + y^3 + z^5", QQ, XYZ)
    chart = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",))
    counts = counted_checks(monkeypatch)
    for changes in ({"stratum": ()}, {"chart_id": "other", "step": 3},
                    {"lineage": None, "residue_degree": 2}):
        replace_chart(chart, **changes)
    assert counts["checks"] == 0
    g = parse_polynomial("x^3 + y^3", QQ, XYZ)
    for changes in ({"generators": (g,)},
                    {"frame": Frame(("x", "y"), ("z",))},
                    {"variables": XYZ}, {"field": QQ}):
        replace_chart(chart, **changes)
    assert counts["checks"] == 4


def test_a_copy_that_breaks_a_checked_field_is_refused():
    f = parse_polynomial("x^2 + y^3 + z^5", QQ, XYZ)
    chart = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",))
    zero = Polynomial.from_vectors(QQ, XYZ, {})
    other_ring = parse_polynomial("x^2 + y^3", QQ, ("x", "y"))
    for changes in ({"generators": (zero,)}, {"generators": (other_ring,)},
                    {"frame": Frame(("x",), ("y",))},
                    {"variables": ("x", "y", "w")},
                    {"field": FieldDescriptor.prime_field(3)}):
        with pytest.raises(InputError):
            replace_chart(chart, **changes)


def test_the_exceptional_divisor_is_built_without_a_second_check(monkeypatch):
    events = []
    for root, options in named_roots().values():
        trace = resolve(root, **options)
        events.extend((trace.charts[e.chart_id], e.center)
                      for e in trace.events)
    wanted = []
    for chart, center in events:
        for child in blow_up(chart, center):
            exceptional = child.frame.boundary[-1]
            w = child.lineage.chart_var
            wanted.append((chart, center, BoundaryComponent(
                Polynomial.variable(chart.field, chart.variables, w), NEW,
                child.step, exceptional.cid)))

    def refuse(self):
        raise AssertionError("the exceptional divisor re-ran the check")

    monkeypatch.setattr(BoundaryComponent, "__post_init__", refuse)
    for chart, center, want in wanted:
        child = next(c for c in blow_up(chart, center)
                     if c.frame.boundary[-1].generator == want.generator)
        got = child.frame.boundary[-1]
        assert type(got) is BoundaryComponent and got == want
        assert hash(got) == hash(want)
    assert len(wanted) > 100
    built = unchecked_component(want.generator, NEW, 1, 0)
    assert built.__dict__ == {"generator": want.generator, "status": NEW,
                              "birth_step": 1, "cid": 0}
