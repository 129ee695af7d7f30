"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports, with
   the same units.
2. Two traced runs with one seed give identical values for every count
   metric (calls, terms_out, solved_steps, per_chart, charts, spans).
3. A short untraced run prints every end-to-end metric by name and unit
   and ends with the result object, with no failed op.
4. Without the program's sources ``run.py`` exits non-zero and prints no
   result.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
COUNT_SUFFIXES = (".calls", ".terms_out", ".solved_steps", ".per_chart",
                  ".charts", ".spans", ".exhausted_ratio")

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracing  # noqa: E402


def invoke(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(RUN), *args],
                          stdout=subprocess.PIPE, text=True, check=False,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check_declaration() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    errors = []
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if declared != list(run.END_TO_END):
        errors.append(f"end_to_end {declared} != {list(run.END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if declared != list(tracing.METRICS):
        errors.append("per_layer differs from tracing.METRICS")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOAD_NAMES):
        errors.append(f"workloads {names} != {list(run.WORKLOAD_NAMES)}")
    return errors


def check_traced_counts(workload: str) -> list[str]:
    values = []
    for _ in range(2):
        code, lines = invoke("--workload", workload, "--trace", "1")
        if code != 0:
            return [f"{workload}: traced run exit {code}"]
        result = result_of(lines)
        if result["failed"]:
            return [f"{workload}: traced run failed {result['failed']} ops"]
        values.append({name: m["value"] for name, m in
                       result["metrics"].items()
                       if name.endswith(COUNT_SUFFIXES)})
    first, second = values
    errors = [f"{workload}: {name} {first[name]} then {second[name]}"
              for name in first if first[name] != second[name]]
    if set(first) != {n for n, _ in tracing.METRICS
                      if n.endswith(COUNT_SUFFIXES)}:
        errors.append(f"{workload}: count metrics missing")
    return errors


def check_short_run(workload: str) -> list[str]:
    code, lines = invoke("--workload", workload, "--seconds", "1")
    if code != 0:
        return [f"{workload}: short run exit {code}"]
    result = result_of(lines)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        errors.append(f"{workload}: {result['failed']} failed ops")
    for metric, unit in run.END_TO_END:
        printed = [line for line in lines[:-1]
                   if line.startswith(f"{workload} {metric} = ")
                   and line.endswith(f" {unit}")]
        if not printed or result["metrics"][metric]["unit"] != unit:
            errors.append(f"{workload}: {metric} [{unit}] not reported")
    return errors


def check_missing_program() -> list[str]:
    """Run a copy of the benchmark in a directory without ``src``."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"),
             "--workload", "face-sweep", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=False, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout[:80]!r}"]
    return []


def main() -> int:
    errors = check_declaration() + check_missing_program()
    for workload in run.WORKLOAD_NAMES:
        errors += check_traced_counts(workload)
        errors += check_short_run(workload)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
