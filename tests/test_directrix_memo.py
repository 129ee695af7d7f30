"""The directrix cache.

``local_frame.compute_directrix`` takes its result from ``_directrix``, an
``lru_cache`` keyed by the tuple of nonzero initial forms.  These tests
count the directrix computations behind it (calls of ``_directrix_rows``,
where every path starts), each after a ``cache_clear()``: every call hands
out a fresh list, equal exponent vectors over two fields are two keys, a run
computes each distinct tuple of initial forms once, an error is raised on
every call, and the cache holds at most its ``maxsize`` entries.  The traces
are the same with the cache bypassed (``_directrix`` swapped for the function
it wraps), on the named jobs, on seeded surfaces over Q, F_2, F_3 and F_5
and on a run with a declared point in a residue extension.  A CLI report is
the same bytes whether other jobs warmed the cache before it or it ran on an
empty one.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

from surfres import local_frame
from surfres.cli import main
from surfres.exact_algebra import (
    FINITE_EXTENSION,
    PRIME_FIELD,
    FieldDescriptor,
    InputError,
    Polynomial,
    parse_polynomial,
)
from surfres.local_frame import Frame, compute_directrix, initial_form
from surfres.resolution_driver import (
    FRESH_LABELS,
    initial_chart,
    resolve,
    trace_to_jsonable,
)

from test_acceptance import random_surface
from test_invariant import whirl_chart
from test_report_writer import NAMED_JOBS

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
XYZ = ("x", "y", "z")
SURFACE = "x^2 + y^9*z^10"
SEEDED_SURFACES = 12
POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
POOL_COUNT = 6
POOL_RESOLVE_S = 0.1
# the cache; ``bypass_cache`` swaps ``local_frame._directrix`` for the
# function it wraps
CACHED = local_frame._directrix


@pytest.fixture
def ridge_calls(monkeypatch):
    """The inputs of every directrix computation from an empty cache on, as
    tuples, in call order."""
    CACHED.cache_clear()
    calls = []
    rows = local_frame._directrix_rows

    def counted(initials):
        calls.append(tuple(initials))
        return rows(initials)
    monkeypatch.setattr(local_frame, "_directrix_rows", counted)
    return calls


def bypass_cache(monkeypatch) -> None:
    monkeypatch.setattr(local_frame, "_directrix", CACHED.__wrapped__)


def forms(text: str, field: FieldDescriptor = QQ) -> list[Polynomial]:
    f = parse_polynomial(text, field, XYZ)
    return [initial_form(f, XYZ)]


def frame() -> Frame:
    return Frame(u_block=("y", "z"), y_block=("x",))


def test_each_call_hands_out_a_fresh_list(ridge_calls):
    _r, first = compute_directrix(forms("x^2 + y^2"), frame())
    first.clear()
    _r, second = compute_directrix(forms("x^2 + y^2"), frame())
    assert second != [] and second is not first
    assert len(ridge_calls) == 1


def test_equal_exponent_vectors_over_two_fields_are_two_keys(ridge_calls):
    """x^2 + y^2 has the directrix x = y = 0 over Q, and x + y = 0 over F_2,
    where it is (x + y)^2; both store the coefficients as the int 1."""
    over_q = compute_directrix(forms("x^2 + y^2"), frame())
    over_f2 = compute_directrix(forms("x^2 + y^2", F2), frame())
    assert over_q[0] == 2 and over_f2[0] == 1
    assert over_f2 == compute_directrix(forms("x^2 + y^2", F2), frame())
    assert len(ridge_calls) == 2


def test_an_error_is_raised_on_every_call(ridge_calls):
    """Exceptions are not cached: a form that is not homogeneous is refused
    each time it is given."""
    for _ in range(2):
        with pytest.raises(InputError):
            compute_directrix([parse_polynomial("x^2 + y^3", QQ, XYZ)], frame())
    assert len(ridge_calls) == 2


def test_the_cache_holds_at_most_its_maxsize(ridge_calls):
    maxsize = CACHED.cache_info().maxsize
    for c in range(1, maxsize + 50):
        compute_directrix(forms(f"x + {c}*y"), frame())
    assert len(ridge_calls) == maxsize + 49
    assert CACHED.cache_info().currsize == maxsize


def resolve_counted(ridge_calls: list) -> list:
    """The ridge inputs of one ``resolve`` of the surface from an empty
    cache, not counting the construction of its root chart."""
    root = initial_chart(QQ, XYZ, SURFACE)
    CACHED.cache_clear()
    ridge_calls.clear()
    resolve(root)
    return list(ridge_calls)


def test_one_run_computes_each_tuple_of_initial_forms_once(ridge_calls,
                                                           monkeypatch):
    cached = resolve_counted(ridge_calls)
    assert cached and len(set(cached)) == len(cached)
    bypass_cache(monkeypatch)
    uncached = resolve_counted(ridge_calls)
    assert set(uncached) == set(cached)
    assert len(uncached) > 2 * len(cached)


def runs():
    """(name, thunk) of the runs whose traces must not see the cache."""
    out = [
        ("surface-default", lambda: resolve(initial_chart(QQ, XYZ, SURFACE))),
        ("surface-fresh", lambda: resolve(initial_chart(QQ, XYZ, SURFACE),
                                          label_mode=FRESH_LABELS)),
        ("crossing-lines-cubic", lambda: resolve(
            initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"))),
        ("two-divisor-chart", lambda: resolve(whirl_chart())),
    ]
    root_of = Polynomial.from_vectors(F2, ("y",), {(2,): 1, (1,): 1, (0,): 1})
    out.append(("F2 declared root of y^2 + y + 1", lambda: resolve(
        initial_chart(F2, XYZ, SURFACE),
        declared_points={"root/z": ({"y": root_of},)})))
    rng = random.Random(20261018)
    drawn = {}
    while len(drawn) < SEEDED_SURFACES:
        name, field, text = random_surface(rng)
        drawn.setdefault((name, text), field)
    for (name, text), field in drawn.items():
        out.append((f"{name}: {text}",
                    lambda field=field, text=text: resolve(
                        initial_chart(field, XYZ, text))))
    return out


RUNS = runs()


def test_the_seeded_runs_cover_every_field():
    names = {name.split(":")[0] for name, _run in RUNS}
    assert {"Q", "F2", "F3", "F5"} <= names


@pytest.mark.parametrize("name, run", RUNS, ids=[name for name, _ in RUNS])
def test_traces_are_the_same_without_the_cache(name, run, monkeypatch):
    cached = trace_to_jsonable(run())
    bypass_cache(monkeypatch)
    assert trace_to_jsonable(run()) == cached


def test_the_declared_point_lies_in_a_residue_extension(ridge_calls):
    """The declared point's directrix is computed over F_4."""
    _name, run = next(item for item in RUNS if "declared" in item[0])
    run()
    assert {initials[0].field.kind for initials in ridge_calls} == {
        PRIME_FIELD, FINITE_EXTENSION}


# -- a report does not depend on what ran before it in the process ---------------

REPORT_COMMANDS = [("resolve",), ("analyze",), ("export", "--format", "dot")]


def report_jobs() -> dict[str, dict]:
    """The named jobs and a seeded sample of the pool surfaces that resolve
    in under 0.1 s with exit 0."""
    fields = {"Q": {"kind": "rationals"},
              **{f"F{p}": {"kind": "prime_field", "characteristic": p}
                 for p in (2, 3, 5)}}
    surfaces = json.loads(POOL.read_text())["surfaces"]
    cheap = [s for s in surfaces
             if s["resolve_s"] < POOL_RESOLVE_S and s["exit"] == 0]
    picked = random.Random("report-jobs").sample(cheap, POOL_COUNT)
    return {**NAMED_JOBS, **{
        f"{s['field']}: {s['text']}": {"field": fields[s["field"]],
                                        "variables": list(XYZ),
                                        "generators": [s["text"]]}
        for s in picked}}


REPORT_JOBS = report_jobs()


def report(args: tuple[str, ...], job: dict, monkeypatch, capsys) -> tuple:
    """The exit code, stdout and stderr of one in-process CLI run."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main([args[0], "-", *args[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_report_is_the_same_on_a_warm_and_on_an_empty_cache(monkeypatch,
                                                               capsys):
    runs = [(args, name) for name in REPORT_JOBS for args in REPORT_COMMANDS]
    CACHED.cache_clear()
    for args, name in reversed(runs):  # warm the cache with every job
        report(args, REPORT_JOBS[name], monkeypatch, capsys)
    warm = {run: report(run[0], REPORT_JOBS[run[1]], monkeypatch, capsys)
            for run in runs}
    assert CACHED.cache_info().hits > len(runs)
    for args, name in runs:
        CACHED.cache_clear()
        assert report(args, REPORT_JOBS[name], monkeypatch, capsys) == (
            warm[args, name]), (args, name)
    assert {code for code, _out, _err in warm.values()} == {0}
