"""Tally the exit codes of CLI ``resolve`` on a seeded census of surfaces.

Draws ``JOBS`` surfaces with ``corpus.random_surface`` (seed ``SEED``) and
turns each into a job of one of four kinds, in turn:

* ``boundary``: the surface with an old boundary from the start, V(y),
  V(z), V(y) and V(z), or V(x);
* ``scaled``: one coefficient multiplied by a constant that is nonzero mod
  the characteristic, so the input stays reduced;
* ``linear``: the surface after the linear change x -> x + y or y -> y + z;
* ``plain``: the surface as drawn.

Runs ``surfres.cli.main(["resolve", "-"])`` in this process on each, and
prints the exit tally per kind, the scope-error families (exit 3, masked as
``tools/pool_tally.py`` masks them), the slowest job's wall time and every
job that exits 1 or 4.

    python3 tools/census.py

The script reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tools/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import corpus  # noqa: E402  (perfbench/corpus.py)
from cli_bytes import run_cli  # noqa: E402
from pool_tally import family  # noqa: E402
from surfres.cli import EXIT_SCOPE  # noqa: E402

SEED = 1
JOBS = 400
KINDS = ("boundary", "scaled", "linear", "plain")
# the old coordinate divisors of the boundary kind
BOUNDARIES = (("y",), ("z",), ("y", "z"), ("x",))
SCALES = (-3, -2, -1, 2, 3, 4, 5, 7)
# the linear changes, as the variable moved and what replaces it
CHANGES = (("x", "(x + y)"), ("y", "(y + z)"))


def _joined(terms: list[tuple[int, str]]) -> str:
    """The sum of c*term, a negative c written as ``- |c|*term`` (the
    grammar refuses ``+ -c*...``)."""
    text = ""
    for c, term in terms:
        body = term if abs(c) == 1 else f"{abs(c)}*{term}"
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" + {body}" if c > 0 else f" - {body}"
    return text


def census_jobs() -> list[tuple[str, str, dict]]:
    """(kind, key, job document) of every census job, in draw order."""
    rng = random.Random(SEED)
    jobs = []
    for i in range(JOBS):
        kind = KINDS[i % len(KINDS)]
        name, text = corpus.random_surface(rng)
        job = corpus.surface_job(name, text)
        if kind == "boundary":
            names = rng.choice(BOUNDARIES)
            job["boundary"] = [{"generator": v} for v in names]
            label = f"{text}, old {' '.join(names)}"
        elif kind == "scaled":
            p = corpus.FIELDS[name].get("characteristic", 0)
            terms = text.split(" + ")
            at = rng.randrange(len(terms))
            c = rng.choice([c for c in SCALES if p == 0 or c % p])
            label = _joined([(c if j == at else 1, t)
                             for j, t in enumerate(terms)])
            job["generators"] = [label]
        elif kind == "linear":
            var, image = rng.choice(CHANGES)
            label = re.sub(rf"\b{var}\^", f"{image}^", text)
            job["generators"] = [label]
        else:
            label = text
        jobs.append((kind, f"{kind} {i} {name}:{label}", job))
    return jobs


def main() -> int:
    start = time.perf_counter()
    codes: dict[str, Counter[int]] = {kind: Counter() for kind in KINDS}
    families: Counter[str] = Counter()
    unexpected = []
    slowest = (0.0, "")
    for kind, key, job in census_jobs():
        began = time.perf_counter()
        code, out, err = run_cli(("resolve",), job)
        slowest = max(slowest, (time.perf_counter() - began, key))
        codes[kind][code] += 1
        if code == EXIT_SCOPE:
            families[family(json.loads(out)["trace"]["error"])] += 1
        elif code in (1, 4):
            unexpected.append((code, key, err.strip().splitlines()[-1:]))
    elapsed = time.perf_counter() - start
    print(f"{JOBS} census jobs (seed {SEED}) in {elapsed:.0f} s; slowest "
          f"{slowest[0]:.2f} s: {slowest[1]}")
    for kind in KINDS:
        tally = ", ".join(f"exit {code}: {n}"
                          for code, n in sorted(codes[kind].items()))
        print(f"  {kind}: {tally}")
    for name, count in families.most_common():
        print(f"  {count:4d}  {name}")
    for code, key, last in unexpected:
        print(f"  exit {code}: {key} {' '.join(last)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
