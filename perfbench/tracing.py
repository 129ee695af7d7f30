"""Per-layer spans, recorded from outside the program.

The program's modules import each other's functions by name
(``from .local_frame import compute_directrix``), so a call from
``invariant`` goes through ``invariant.compute_directrix``, not through
``local_frame.compute_directrix``.  ``Tracer.install`` therefore replaces
every module global of the ``surfres`` package that holds one of the
traced functions, and ``Tracer.uninstall`` puts the originals back.

Each call of a wrapped function records one span (name, parent span, op
id, start, end) in flat arrays kept in memory; ``Tracer.write`` writes
them out at the end.  ``Tracer.metrics`` reads them once: a span's self
time is its duration minus the durations of its direct children, which
cover disjoint parts of it because the benchmark runs in one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

# module -> public functions whose calls become spans
LAYERS: dict[str, tuple[str, ...]] = {
    "exact_algebra": ("substitute", "substitute_many", "hasse_derivative",
                      "parse_polynomial", "to_string"),
    "local_frame": ("nu_star", "compute_directrix", "directrix_of_JO"),
    "char_polyhedron": ("prepare", "polyhedron_of", "face_numbers",
                        "sigma_search"),
    "blowup_engine": ("blow_up_chart", "classify_point", "permissible_check",
                      "locate_point"),
    "invariant": ("compute_iota", "adapt_frame_to_forms", "iota_poly"),
    "resolution_driver": ("resolve", "select_center", "max_stratum",
                          "check_monotone", "trace_to_jsonable",
                          "trace_to_dot"),
    "cli": ("build_chart",),
}

# json.dumps as called from the cli module (report serialisation)
SERIALISE = "cli.serialise"


def _count_terms(counts: Counter, result: Any) -> None:
    counts["exact_algebra.substitute.terms_out"] += len(result.terms)


def _count_prepare(counts: Counter, result: Any) -> None:
    counts["char_polyhedron.prepare.solved_steps"] += len(result.changes)
    if result.status == "budget_exhausted":
        counts["char_polyhedron.prepare.exhausted"] += 1


def _count_charts(counts: Counter, result: Any) -> None:
    counts["resolution_driver.resolve.charts"] += len(result.charts)


RESULT_COUNTERS: dict[str, Callable[[Counter, Any], None]] = {
    "exact_algebra.substitute": _count_terms,
    "char_polyhedron.prepare": _count_prepare,
    "resolution_driver.resolve": _count_charts,
}


class _JsonSeenFromCli:
    """Stands in for the ``json`` module inside ``surfres.cli`` so that
    only the cli's own ``json.dumps`` calls are timed."""

    def __init__(self, dumps: Callable[..., str]) -> None:
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._name_id(name)
        on_result = RESULT_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every ``surfres`` module binding."""
        modules = {
            name.rsplit(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("surfres.") and mod is not None
        }
        missing = [m for m in LAYERS if m not in modules]
        if missing:
            raise RuntimeError(f"modules not imported: {missing}")
        wrappers: dict[int, Callable[..., Any]] = {}
        for mod_name, funcs in LAYERS.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrappers[id(original)] = self.wrap(f"{mod_name}.{func}",
                                                   original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replace(mod, attr, wrapper)
        cli = modules["cli"]
        self._replace(cli, "json",
                      _JsonSeenFromCli(self.wrap(SERIALISE, json.dumps)))

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def write(self, path: Path, op_keys: Sequence[str]) -> None:
        """Every span as one JSON line: op key, span name, parent span
        (line number from 0, -1 for none), start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                op = self.op[i]
                handle.write(json.dumps([
                    op_keys[op] if op >= 0 else None,
                    self.span_names[self.name[i]], self.parent[i],
                    self.start[i], self.end[i]]) + "\n")

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the result counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.span_names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        out: dict[str, float] = {}
        for name in self.span_names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["trace.spans"] = n
        return out


def _metric_names() -> tuple[tuple[str, str], ...]:
    names = []
    for mod, funcs in LAYERS.items():
        for func in funcs:
            names += [(f"{mod}.{func}.calls", "count"),
                      (f"{mod}.{func}.self_s", "s")]
    return tuple(names) + (
        (f"{SERIALISE}.calls", "count"),
        (f"{SERIALISE}.self_s", "s"),
        ("exact_algebra.substitute.terms_out", "count"),
        ("char_polyhedron.prepare.solved_steps", "count"),
        ("char_polyhedron.prepare.exhausted_ratio", "ratio"),
        ("local_frame.compute_directrix.per_chart", "1/chart"),
        ("invariant.compute_iota.per_chart", "1/chart"),
        ("resolution_driver.resolve.charts", "count"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    )


# every per-layer metric a traced run reports, with its unit
METRICS = _metric_names()
