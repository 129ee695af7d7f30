"""List the statements of ``src/surfres`` that one run never executes.

    python3 tools/src_lines_run.py tools/cli_bytes.py --record digests.json
    PYTHONHASHSEED=0 python3 tools/src_lines_run.py perfbench/run.py \\
        --workload face-sweep --seconds 1
    python3 tools/src_lines_run.py -m pytest -q -p no:cacheprovider tests

The script (or, after ``-m``, the module) runs in this process, with its
own arguments, under a ``sys.settrace`` trace function that follows only
the frames of files in ``src/surfres``.  A statement is a line that the
module's compiled code maps an instruction to; it counts as executed when a
frame runs an instruction of it, or, for a ``def`` line, when the function
is called.  When the run ends, each statement that never ran is printed as
``module.py:LINE  function  source`` (``<module>`` for module level, a
method as ``Class.method``), then one count per module.  The exit code is
the run's own.

Only this process's main thread is traced, so code in other threads and
in child processes is not seen: ``perfbench/run.py`` re-executes itself
unless ``PYTHONHASHSEED`` is 0, and ``--workload all`` runs each workload
in a child, so give it one workload and ``PYTHONHASHSEED=0``.

The trace function runs in a frame of its own on top of each traced frame,
so at the interpreter's recursion limit it is the trace function that does
not fit, and the interpreter then switches it off for the rest of the run.
Every run that recurses to that limit does so: in the tier-1 tests,
``tests/test_parse_caps.py::test_deeply_nested_text_is_an_input_error``
(the parser, on text nested 10,000 deep) and
``tests/test_report_writer.py::test_the_deepest_stored_trace_the_reader_accepts_is_written``
(the CLI's recursive report writer, which fails here with a
``RecursionError`` because the trace frames use up its depth).  So a
garbage-collector callback puts the trace function back at the next
collection after it was switched off, and the run reports on stderr how
often that happened: a statement that ran only between a switch-off and
that collection reads as not run.
"""

from __future__ import annotations

import gc
import runpy
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surfres"


def statements(path: Path) -> dict[int, str]:
    """Each statement line of the module, with the qualified name of the
    function (or ``<module>``) whose code it belongs to."""
    out: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _start, _end, line in code.co_lines():
            if line is not None:
                out.setdefault(line, code.co_qualname)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return out


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]], int]:
    """Run ``argv`` (a script and its arguments, or ``-m`` and a module
    and its arguments) under the trace; its exit code, the executed lines
    of each package file, and how often the trace function was found
    switched off and put back."""
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"
    restored = 0

    def tracer(frame, event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed.setdefault(frame.f_code.co_filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def restore(phase, _info):
        # the interpreter switches off a trace function that raises, as
        # this one does where its frame passes the recursion limit
        nonlocal restored
        if phase == "start" and sys.gettrace() is None:
            restored += 1
            sys.settrace(tracer)

    sys.path.insert(0, str(ROOT / "src"))
    module = argv[0] == "-m"
    target = argv[1] if module else argv[0]
    sys.argv = argv[1:] if module else argv
    if not module:
        sys.path.insert(0, str(Path(target).resolve().parent))
    code = 0
    sys.settrace(tracer)
    gc.callbacks.append(restore)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else int(
            exit_.code is not None)
    finally:
        gc.callbacks.remove(restore)
        restored += sys.gettrace() is None
        sys.settrace(None)
    return code, executed, restored


def main(argv: list[str]) -> int:
    if not argv or argv == ["-m"]:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: src_lines_run.py SCRIPT [ARG ...] | -m MODULE [ARG ...]",
              file=sys.stderr)
        return 2
    code, executed, restored = run_traced(argv)
    if restored:
        print(f"the trace function was switched off {restored} time(s); "
              "each time it was put back at the next garbage collection, "
              "unless the run ended first", file=sys.stderr)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted((line, name) for line, name in statements(path).items()
                        if line not in ran)
        for line, name in missed:
            print(f"{path.name}:{line}  {name}  {source[line - 1].strip()}")
        counts.append(f"{path.name}: {len(missed)} statements not run")
    print("\n".join(counts))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
