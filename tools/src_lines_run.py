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
in a child, so give it one workload and ``PYTHONHASHSEED=0``.  The trace function runs in a frame of its own
on top of each traced frame, so a run that recurses to the interpreter's
limit fails earlier under it:
``tests/test_report_writer.py::test_the_deepest_stored_trace_the_reader_accepts_is_written``
drives the CLI's recursive report writer to that limit and fails here with
a ``RecursionError``.
"""

from __future__ import annotations

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


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run ``argv`` (a script and its arguments, or ``-m`` and a module
    and its arguments) under the trace; its exit code and the executed
    lines of each package file."""
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

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

    sys.path.insert(0, str(ROOT / "src"))
    module = argv[0] == "-m"
    target = argv[1] if module else argv[0]
    sys.argv = argv[1:] if module else argv
    if not module:
        sys.path.insert(0, str(Path(target).resolve().parent))
    code = 0
    sys.settrace(tracer)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else int(
            exit_.code is not None)
    finally:
        sys.settrace(None)
    return code, executed


def main(argv: list[str]) -> int:
    if not argv or argv == ["-m"]:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: src_lines_run.py SCRIPT [ARG ...] | -m MODULE [ARG ...]",
              file=sys.stderr)
        return 2
    code, executed = run_traced(argv)
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
