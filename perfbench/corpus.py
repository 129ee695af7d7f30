"""Seeded inputs for the benchmark, built without the test suite.

Everything the program receives is made here: JSON job documents for the
CLI and charts for the library sweep.

* The four named jobs are the acceptance corpus's named surfaces.
* Random surfaces come from ``random_surface``, the binomial/trinomial
  family over Q, F2, F3 and F5.  Their cost spans two orders of magnitude
  (a few ms to over a second), so a plain random draw of a few dozen
  makes a workload whose throughput moves by 20% from seed to seed.
  ``pool.json`` holds a fixed pool of such surfaces (``make_pool.py``)
  with their measured cost; ``stratified_sample`` takes surfaces at evenly
  spaced cost ranks and lets the seed pick each among its nearest
  neighbours in cost, so every seed gets different surfaces with the same
  cost profile.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

DEFAULT_SEED = 20260823
# how many pool surfaces of neighbouring cost the seed chooses among
WINDOW = 5

RATIONALS = {"kind": "rationals"}
FIELDS = {
    "Q": RATIONALS,
    "F2": {"kind": "prime_field", "characteristic": 2},
    "F3": {"kind": "prime_field", "characteristic": 3},
    "F5": {"kind": "prime_field", "characteristic": 5},
}
FIELD_NAMES = ("Q", "F2", "F3", "F5")
XYZ = ["x", "y", "z"]

SURFACE = "x^2 + y^9*z^10"
CUBIC = "z^3 + x^2*y^2*z + x^3*y^3"
WHIRL = "y^2 + (u2 + u1)^3 + u1^7"

# the acceptance corpus's named jobs, as CLI job documents
NAMED_JOBS: dict[str, dict[str, Any]] = {
    "surface-default": {
        "field": RATIONALS, "variables": XYZ, "generators": [SURFACE]},
    "surface-fresh": {
        "field": RATIONALS, "variables": XYZ, "generators": [SURFACE],
        "options": {"label_mode": "fresh"}},
    "crossing-lines-cubic": {
        "field": RATIONALS, "variables": XYZ, "generators": [CUBIC]},
    "two-divisor-chart": {
        "field": RATIONALS, "variables": ["u1", "u2", "y"],
        "generators": [WHIRL],
        "frame": {"u": ["u1", "u2"], "y": ["y"]},
        "boundary": [
            {"generator": "u1", "status": "new", "birth": 0, "cid": 0},
            {"generator": "u2", "status": "new", "birth": 0, "cid": 1},
        ]},
}


def random_surface(rng: random.Random) -> tuple[str, str]:
    """A random surface x^a + y^b z^c (+ x^d y^e z^g) and its field name."""
    name = FIELD_NAMES[rng.randrange(4)]
    a = rng.randint(2, 3)
    terms = [f"x^{a}"]
    while True:
        b, c = rng.randint(0, 4), rng.randint(0, 4)
        if b + c >= 2:
            break
    terms.append(f"y^{b}*z^{c}" if b and c else (f"y^{b}" if b else f"z^{c}"))
    if rng.random() < 0.5:
        d = rng.randint(1, a - 1) if a > 2 else 1
        e, g = rng.randint(0, 3), rng.randint(0, 3)
        if d + e + g >= 2:
            mon = [f"x^{d}"]
            if e:
                mon.append(f"y^{e}")
            if g:
                mon.append(f"z^{g}")
            terms.append("*".join(mon))
    return name, " + ".join(terms)


def surface_job(field_name: str, text: str) -> dict[str, Any]:
    return {"field": FIELDS[field_name], "variables": XYZ,
            "generators": [text]}


def load_pool() -> list[dict[str, Any]]:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)["surfaces"]


def stratified_sample(seed: int, count: int, cost_key: str, salt: str,
                      cheapest: float = 1.0) -> list[dict[str, Any]]:
    """``count`` pool surfaces at evenly spaced ranks of cost, in cost
    order; the seed picks each among the ``WINDOW`` surfaces nearest its
    rank.  Only the ``cheapest`` share of the pool by ``cost_key`` is
    sampled, and surfaces the pool marks as excluded never appear."""
    pool = sorted((s for s in load_pool() if s["excluded"] is None),
                  key=lambda s: (s[cost_key], s["field"], s["text"]))
    pool = pool[:round(len(pool) * cheapest)]
    n = len(pool)
    if count * WINDOW > n:
        raise ValueError(f"pool of {n} too small for {count} x {WINDOW}")
    rng = random.Random(f"{salt}:{seed}")
    picks = []
    for i in range(count):
        low = (2 * i + 1) * n // (2 * count) - WINDOW // 2
        picks.append(pool[rng.randrange(low, low + WINDOW)])
    return picks


# ---------------------------------------------------------------------------
# job documents from charts of a resolution trace
# ---------------------------------------------------------------------------


def chart_job(chart: dict[str, Any], field: dict[str, Any]) -> dict[str, Any]:
    """The job document of one chart of an exported trace, with its frame,
    boundary and stratum, so the CLI rebuilds exactly that chart."""
    job: dict[str, Any] = {
        "field": field,
        "variables": chart["variables"],
        "generators": chart["generators"],
        "frame": {"u": chart["u_block"], "y": chart["y_block"]},
        "boundary": [
            {"generator": b["generator"], "status": b["status"],
             "birth": b["birth_step"], "cid": b["cid"]}
            for b in chart["boundary"]],
    }
    if chart["stratum"] is not None:
        job["stratum"] = [
            {"variables": c["variables"], "label": c["label"],
             "cid": c["cid"], "original": c["original"],
             "conditions": c["conditions"]}
            for c in chart["stratum"]]
    return job
