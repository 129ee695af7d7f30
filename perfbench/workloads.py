"""The three workloads: their seeded inputs, their ops and their checks.

Each workload function is the set-up: it builds every input from the
seed, runs one warm-up op, and returns the ops of one pass in a seeded
order.  An op's ``run`` is the timed call into the program; ``check``
looks at the outputs of a whole pass afterwards, untimed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import corpus
import ops
from surfres import exact_algebra, resolution_driver
from surfres.exact_algebra import InputError, ScopeError


@dataclass(frozen=True)
class Op:
    key: str                   # stable name; also the digest key
    run: Callable[[], Any]     # the timed call
    check: Callable[[dict[str, Any]], str | None]   # given the pass outputs


@dataclass
class Workload:
    ops: list[Op]
    # charts the pass touches; None when they are counted from the traced
    # resolve calls instead
    charts: int | None
    output_text: Callable[[Any], str] = field(default=lambda out: out[1])


def _shuffled(items: list[Op], workload: str, seed: int) -> list[Op]:
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items


def _cli_op(key: str, command: str, job: dict[str, Any], *extra: str,
            check: Callable[[dict[str, Any]], str | None]) -> Op:
    text = json.dumps(job)
    return Op(key, lambda: ops.run_cli(command, text, *extra), check)


# ---------------------------------------------------------------------------
# resolve-corpus
# ---------------------------------------------------------------------------

RESOLVE_RANDOM = 32
# The pool's costliest quarter by resolve time (0.3 s to 1.5 s a surface)
# is left out: it would double a pass, and each op would then be timed
# only about three times in a run (see run.py: the latency metrics take
# each op's best over the passes).  The named jobs keep such ops in every
# pass.
RESOLVE_CHEAPEST = 0.75


def resolve_corpus(seed: int) -> Workload:
    """CLI resolve on the named jobs and 32 seeded random surfaces, and a
    DOT export of each named job."""
    jobs = dict(corpus.NAMED_JOBS)
    for s in corpus.stratified_sample(seed, RESOLVE_RANDOM, "resolve_s",
                                      "resolve-corpus", RESOLVE_CHEAPEST):
        jobs[f"{s['field']}:{s['text']}"] = corpus.surface_job(
            s["field"], s["text"])
    items = []
    for name, job in jobs.items():
        def check_resolve(outs, name=name):
            return checks.check_resolve(name, *outs[f"resolve:{name}"])
        items.append(_cli_op(f"resolve:{name}", "resolve", job,
                             check=check_resolve))
    for name in corpus.NAMED_JOBS:
        def check_dot(outs, name=name):
            code, dot, _err = outs[f"export:{name}"]
            return checks.check_dot(code, dot, outs[f"resolve:{name}"][1])
        items.append(_cli_op(f"export:{name}", "export", jobs[name],
                             "--format", "dot", check=check_dot))
    ops.run_cli("resolve", json.dumps(jobs["crossing-lines-cubic"]))
    return Workload(_shuffled(items, "resolve-corpus", seed),
                    charts=None)


# ---------------------------------------------------------------------------
# face-sweep
# ---------------------------------------------------------------------------

# The seeded part of the sweep is a fixed number of charts, drawn from the
# traces of seeded random surfaces: their sweepable chart counts differ
# (6 surfaces gave 36 to 89 in five seeds), and ops_per_s followed it.
SWEEP_RANDOM_CHARTS = 32
SWEEP_SURFACES = 6
# The pool's costliest tenth by sweep time (0.3 s to 15 s a surface at
# budget 8) is left out: one such draw would multiply a pass's time, and
# the named two-divisor trace already puts that mechanism in every pass.
SWEEP_CHEAPEST = 0.9


def _named_traces() -> dict[str, Any]:
    return {name: ops.resolve_job(job)
            for name, job in corpus.NAMED_JOBS.items()}


def _sweepable(name: str, trace: Any) -> list[tuple[str, Any]]:
    """Charts of a trace on which the sweep is defined: the adapted frame
    has e = 1 or 2 (criterion 8's domain)."""
    out = []
    for chart in trace.charts.values():
        try:
            _gens, frame = ops.adapted(chart)
        except (InputError, ScopeError):
            continue
        if frame.e in (1, 2):
            out.append((f"sweep:{name}:{chart.chart_id}", chart))
    return out


def _random_charts(seed: int) -> list[tuple[str, Any]]:
    """``SWEEP_RANDOM_CHARTS`` sweepable charts of seeded random surfaces."""
    charts: list[tuple[str, Any]] = []
    draw = 0
    while len(charts) < SWEEP_RANDOM_CHARTS:
        if draw == 20:
            raise RuntimeError("the pool gives too few sweepable charts")
        for s in corpus.stratified_sample(seed, SWEEP_SURFACES, "sweep_s",
                                          f"face-sweep:{draw}",
                                          SWEEP_CHEAPEST):
            name = f"{s['field']}:{s['text']}"
            if any(key.startswith(f"sweep:{name}:") for key, _ in charts):
                continue
            trace = ops.resolve_job(corpus.surface_job(s["field"], s["text"]))
            charts += _sweepable(name, trace)
        draw += 1
    return random.Random(f"face-sweep:{seed}").sample(charts,
                                                     SWEEP_RANDOM_CHARTS)


def face_sweep(seed: int) -> Workload:
    """The criterion-8 pipeline on every chart of the named traces where
    it is defined, and on 32 such charts of seeded random surfaces."""
    charts = [c for name, trace in _named_traces().items()
              for c in _sweepable(name, trace)]
    items = []
    for key, chart in charts + _random_charts(seed):
        texts = [exact_algebra.to_string(g) for g in chart.generators]
        order = checks.order_of(texts[0], chart.variables)

        def check(outs, key=key, order=order, chart=chart):
            outcome = outs[key]
            adapted = [exact_algebra.to_string(g) for g in outcome.generators]
            return checks.check_sweep(outcome, order, adapted,
                                      chart.variables)
        items.append(Op(key, lambda chart=chart: ops.sweep_chart(chart),
                        check))
    min((op for op in items if "crossing-lines-cubic" in op.key),
        key=lambda op: op.key).run()
    return Workload(_shuffled(items, "face-sweep", seed),
                    charts=len(items), output_text=checks.sweep_text)


# ---------------------------------------------------------------------------
# chart-queries
# ---------------------------------------------------------------------------


def chart_queries(seed: int) -> Workload:
    """CLI analyze and invariant on every chart of the named traces, and
    blowup on every chart with a non-empty stratum."""
    items = []
    for name, trace in _named_traces().items():
        doc = resolution_driver.trace_to_jsonable(trace)
        events = {ev["chart"]: ev for ev in doc["events"]}
        for chart in doc["charts"]:
            cid = chart["id"]
            job = corpus.chart_job(chart, corpus.RATIONALS)
            key = f"{name}:{cid}"
            event = events.get(cid)
            expected = event["records"][0]["iota_before"] if event else None

            def check_analyze(outs, key=key, job=job):
                code, out, _ = outs[f"analyze:{key}"]
                return checks.check_analyze(code, out, job)

            def check_invariant(outs, key=key, expected=expected):
                code, out, _ = outs[f"invariant:{key}"]
                return checks.check_invariant(code, out, expected)
            items.append(_cli_op(f"analyze:{key}", "analyze", job,
                                 check=check_analyze))
            items.append(_cli_op(f"invariant:{key}", "invariant", job,
                                 check=check_invariant))
            if not chart["stratum"]:
                continue
            children = {c["chart_var"]: c["generators"]
                        for c in doc["charts"] if c.get("parent") == cid}

            def check_blowup(outs, key=key, event=event, children=children):
                code, out, _ = outs[f"blowup:{key}"]
                return checks.check_blowup(code, out, event, children)
            items.append(_cli_op(f"blowup:{key}", "blowup", job,
                                 check=check_blowup))
    min((op for op in items if "crossing-lines-cubic" in op.key),
        key=lambda op: op.key).run()
    return Workload(_shuffled(items, "chart-queries", seed),
                    charts=sum(op.key.startswith("analyze:") for op in items))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "resolve-corpus": resolve_corpus,
    "face-sweep": face_sweep,
    "chart-queries": chart_queries,
}
