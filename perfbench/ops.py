"""The benchmark's calls into the program, through its public entry points.

Library functions are looked up on their modules at call time, so the
wrappers that ``tracing.Tracer`` installs see these calls too.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from typing import Any

from surfres import (
    char_polyhedron, cli, invariant, local_frame, resolution_driver)

# Every named-trace chart's outcome (minimal, empty or exhausted) is the
# same at budgets 4, 8 and 16; budget 16 takes about seven times as long.
SWEEP_BUDGET = 8


def run_cli(command: str, job_text: str, *extra: str) -> tuple[int, str, str]:
    """``surfres <command> - [extra]`` with the job document on stdin;
    returns the exit code, the report and the diagnostics."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(job_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "-", *extra])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class SweepOutcome:
    """The criterion-8 pipeline's result for one chart."""

    generators: tuple[Any, ...]   # the frame-adapted generators
    frame: Any
    result: Any                   # the PreparationResult
    delta: Any
    faces: tuple[tuple[Any, ...], ...]   # face numbers of sides 1 and 2


def adapted(chart: Any) -> tuple[list[Any], Any]:
    """Initial forms, directrix, and the frame adapted to it."""
    initials = [local_frame.initial_form(g, g.variables)
                for g in chart.generators]
    _rank, forms = local_frame.compute_directrix(initials, chart.frame)
    gens, frame = invariant.adapt_frame_to_forms(
        list(chart.generators), chart.frame, forms)
    return list(gens), frame


def sweep_chart(chart: Any) -> SweepOutcome:
    """Adapt the frame, prepare at a fixed budget, then delta and the face
    numbers of both sides."""
    gens, frame = adapted(chart)
    result = char_polyhedron.prepare(gens, frame, budget=SWEEP_BUDGET)
    poly = result.polyhedron
    faces: tuple[tuple[Any, ...], ...] = ()
    if frame.e == 2 and not poly.is_empty:
        faces = tuple(char_polyhedron.face_numbers(poly, side)
                      for side in (1, 2))
    return SweepOutcome(tuple(gens), frame, result,
                        char_polyhedron.delta(poly), faces)


def resolve_job(job: dict[str, Any]) -> Any:
    """The resolution trace of a job document, as ``surfres resolve``
    computes it."""
    options = job.get("options", {})
    return resolution_driver.resolve(
        cli.build_chart(job), max_steps=options.get("max_steps", 64),
        label_mode=options.get("label_mode", "default"))
