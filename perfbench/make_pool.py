"""Regenerate ``pool.json``, the fixed pool of random surfaces that
``corpus.stratified_sample`` draws from.

    python3 perfbench/make_pool.py

For each of ``COUNT`` distinct surfaces of ``corpus.random_surface``
(drawn with ``POOL_SEED``) it records two costs, in seconds at the
reference speed (``reference.py``) on the machine that runs it:
``resolve_s``, one ``surfres resolve`` of the job, and ``sweep_s``, the
face sweep of every chart of its trace that does not raise.  Each is the
median of ``ROUNDS`` passes over the whole pool, so that a slow spell of
the machine does not fall on a few surfaces only.
Only their order is used: it defines the cost strata.  A surface on which
``resolve`` does not end with exit 0 or 3 is kept with an ``excluded``
reason and never sampled.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
from surfres.exact_algebra import InputError, ScopeError  # noqa: E402

COUNT = 480
POOL_SEED = 0
ROUNDS = 3


def timed(call) -> tuple[float, object]:
    """Seconds ``call()`` takes at the reference speed, and its result."""
    before = reference.sample()
    start = time.perf_counter()
    result = call()
    took = time.perf_counter() - start
    return reference.scale(took, before, reference.sample()), result


def sweep_seconds(trace) -> float:
    total = 0.0
    for chart in trace.charts.values():
        try:
            took, _ = timed(lambda chart=chart: ops.sweep_chart(chart))
        except (InputError, ScopeError):
            continue
        total += took
    return total


def main() -> int:
    rng = random.Random(POOL_SEED)
    seen: set[tuple[str, str]] = set()
    surfaces = []
    while len(surfaces) < COUNT:
        field, text = corpus.random_surface(rng)
        if (field, text) not in seen:
            seen.add((field, text))
            surfaces.append({"field": field, "text": text, "exit": None,
                             "resolve_s": [], "sweep_s": [],
                             "excluded": None})
    for round_no in range(ROUNDS):
        for entry in surfaces:
            if entry["excluded"]:
                continue
            job = corpus.surface_job(entry["field"], entry["text"])
            took, (code, _out, err) = timed(
                lambda job=job: ops.run_cli("resolve", json.dumps(job)))
            entry["resolve_s"].append(took)
            entry["exit"] = code
            if code not in (0, 3):
                entry["excluded"] = (f"resolve exits {code} on a valid job: "
                                     + err.strip().splitlines()[-1])
                continue
            entry["sweep_s"].append(sweep_seconds(ops.resolve_job(job)))
        print(f"round {round_no + 1} of {ROUNDS} done", file=sys.stderr)
    for entry in surfaces:
        for key in ("resolve_s", "sweep_s"):
            times = entry[key]
            entry[key] = round(statistics.median(times), 5) if times else None
    doc = {"pool_seed": POOL_SEED, "rounds": ROUNDS,
           "surfaces": surfaces}
    with open(corpus.POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
