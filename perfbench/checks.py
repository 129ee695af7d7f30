"""Output checks that do not rely on the code under test.

Each check reads the program's output as text or plain data and recomputes
what it claims with code of its own: the lexicographic comparison of two
invariants, the order of a generator, membership in a Newton-type
polyhedron, the shape of a DOT graph.  A check returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from typing import Any, Iterable, Sequence

INF = math.inf

# criterion 3's pinned chains of x^2 + y^9*z^10
PINNED_DEFAULT = {"root/z": "x^2 + y^9*z^17", "root/z/y": "x^2 + y^7*z^17"}
PINNED_FRESH = ("x^2 + y^7*z^15", "x^2 + y^5*z^15")

RESOLVE_DONE = ("resolved", "step_limit")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# ---------------------------------------------------------------------------
# polynomial text
# ---------------------------------------------------------------------------


def _split_top(text: str, seps: tuple[str, ...]) -> list[str]:
    """Split at separators that are not inside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in seps:
                if text.startswith(sep, i) and i > 0:
                    parts.append(text[start:i])
                    start = i + len(sep)
                    i = start - 1
                    break
        i += 1
    parts.append(text[start:])
    return parts


def term_exponents(text: str, variables: Sequence[str]
                   ) -> list[dict[str, int]]:
    """The exponent map of every term of a printed polynomial."""
    names = set(variables)
    terms = []
    for term in _split_top(text.lstrip("-"), (" + ", " - ")):
        exps: dict[str, int] = {}
        for factor in _split_top(term, ("*",)):
            name, _, power = factor.partition("^")
            if name in names:
                exps[name] = exps.get(name, 0) + (int(power) if power else 1)
        terms.append(exps)
    return terms


def order_of(text: str, variables: Sequence[str]) -> int:
    """Least total degree of a term: the multiplicity at the origin."""
    return min(sum(e.values()) for e in term_exponents(text, variables))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _scalar(v: Any) -> Any:
    if v == "inf":
        return INF
    if isinstance(v, str):
        return Fraction(v)
    return v


def _cmp(a: Any, b: Any) -> int:
    if isinstance(a, list) or isinstance(b, list):
        # an order vector; a shorter one is padded with inf
        n = max(len(a), len(b))
        for i in range(n):
            c = _cmp(a[i] if i < len(a) else "inf",
                     b[i] if i < len(b) else "inf")
            if c:
                return c
        return 0
    x, y = _scalar(a), _scalar(b)
    return -1 if x < y else (1 if x > y else 0)


def compare_iota(a: dict[str, Any], b: dict[str, Any]) -> int:
    """Lexicographic comparison of two serialised invariants."""
    sa = a["iota0"] + a["iota_c"] + a["iota_poly"]
    sb = b["iota0"] + b["iota_c"] + b["iota_poly"]
    if len(sa) != len(sb):
        raise ValueError("invariants of different shapes")
    for x, y in zip(sa, sb):
        c = _cmp(x, y)
        if c:
            return c
    return 0


def iota_slots(doc: dict[str, Any]) -> tuple:
    return (doc["case"], doc["iota0"], doc["iota_c"], doc["iota_poly"])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def check_resolve(name: str, code: int, out: str, err: str,
                  max_steps: int = 64) -> str | None:
    """Exit 0 or 3; on 0 an audited, strictly decreasing, well-formed tree."""
    if code == 3:
        if not out:
            return None if err.startswith("scope error:") else \
                f"exit 3 without a scope error message: {err[:80]!r}"
        trace = json.loads(out)["trace"]
        if trace["status"] != "scope_error" or not trace["error"]:
            return f"exit 3 with trace status {trace['status']!r}"
        return None
    if code != 0:
        return f"resolve exit {code}: {err.strip()[-120:]!r}"
    report = json.loads(out)
    trace, mono = report["trace"], report["monotone"]
    if report["command"] != "resolve":
        return "wrong command in report"
    if trace["status"] not in RESOLVE_DONE:
        return f"exit 0 with status {trace['status']!r}"
    if mono["ok"] is not True or mono["violations"]:
        return "exit 0 but the monotonicity audit failed"
    records = [r for ev in trace["events"] for r in ev["records"]]
    if mono["checked"] != len(records):
        return f"audit checked {mono['checked']} of {len(records)} records"
    for rec in records:
        if compare_iota(rec["iota_after"], rec["iota_before"]) >= 0:
            return f"invariant does not drop at {rec['chart']}"
    if trace["steps"] != len(trace["events"]) or trace["steps"] > max_steps:
        return f"{trace['steps']} steps recorded"
    problem = _check_tree(trace)
    if problem:
        return problem
    charts = {c["id"]: c for c in trace["charts"]}
    if name == "surface-default":
        for chart_id, text in PINNED_DEFAULT.items():
            if chart_id not in charts or \
                    charts[chart_id]["generators"] != [text]:
                return f"pinned chart {chart_id} is not {text!r}"
    if name == "surface-fresh":
        found = {c["generators"][0] for c in charts.values()
                 if len(c["generators"]) == 1}
        if not set(PINNED_FRESH) <= found:
            return "fresh-label chain misses a pinned generator"
    return None


def _check_tree(trace: dict[str, Any]) -> str | None:
    ids = [c["id"] for c in trace["charts"]]
    if len(set(ids)) != len(ids):
        return "duplicate chart ids"
    known = set(ids)
    created = [cid for ev in trace["events"] for cid in ev["created"]]
    if len(ids) != 1 + len(created) or not set(created) <= known:
        return f"{len(ids)} charts for {len(created)} created"
    parents = {c["id"]: c.get("parent") for c in trace["charts"]}
    for ev in trace["events"]:
        for cid in ev["created"]:
            if parents[cid] != ev["chart"]:
                return f"chart {cid} is not a child of {ev['chart']}"
    return None


_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[label=')
_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[label=')


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def check_dot(code: int, dot: str, resolve_out: str) -> str | None:
    """One node per chart and one edge per created chart, parent to child."""
    if code != 0:
        return f"export exit {code}"
    trace = json.loads(resolve_out)["trace"]
    if not dot.startswith("digraph ") or not dot.rstrip().endswith("}"):
        return "not a DOT digraph"
    nodes, edges = [], []
    for line in dot.splitlines():
        m = _EDGE.match(line)
        if m:
            edges.append((_unescape(m.group(1)), _unescape(m.group(2))))
            continue
        m = _NODE.match(line)
        if m:
            nodes.append(_unescape(m.group(1)))
    charts = {c["id"]: c.get("parent") for c in trace["charts"]}
    if sorted(nodes) != sorted(charts):
        return f"{len(nodes)} DOT nodes for {len(charts)} charts"
    if sorted(edges) != sorted((p, c) for c, p in charts.items() if p):
        return f"{len(edges)} DOT edges do not match the chart tree"
    return None


def check_analyze(code: int, out: str, job: dict[str, Any]) -> str | None:
    if code != 0:
        return f"analyze exit {code}"
    report = json.loads(out)
    if report["command"] != "analyze" \
            or report["generators"] != job["generators"] \
            or report["variables"] != job["variables"]:
        return "analyze report does not echo the chart"
    order = order_of(job["generators"][0], job["variables"])
    if report["nu_star"][0] != order:
        return f"nu* starts at {report['nu_star'][0]}, order is {order}"
    n = len(job["variables"])
    if not all(isinstance(report[k], int) and 0 <= report[k] <= n
               for k in ("e", "e_O", "old_components", "new_components")):
        return "analyze counts out of range"
    return None


def check_invariant(code: int, out: str,
                    expected: dict[str, Any] | None) -> str | None:
    """``expected`` is the invariant the resolver recorded for this chart
    before blowing it up, when it did."""
    if code != 0:
        return f"invariant exit {code}"
    report = json.loads(out)
    if report["command"] != "invariant":
        return "wrong command in report"
    if expected is not None and iota_slots(report) != iota_slots(expected):
        return "invariant differs from the one the resolver recorded"
    return None


def check_blowup(code: int, out: str, event: dict[str, Any] | None,
                 children: dict[str, list[str]]) -> str | None:
    """``event`` is the resolver's blow-up of this chart (None when the
    chart is finished), ``children`` its created charts' generators by
    chart variable."""
    if event is None:
        return None if code == 2 else f"blowup of a finished chart exit {code}"
    if code != 0:
        return f"blowup exit {code}"
    report = json.loads(out)
    center = report["center"]["variables"]
    if center != event["center"]["variables"]:
        return f"center {center} differs from the resolver's"
    got = {c["chart_var"]: c["chart"]["generators"]
           for c in report["children"]}
    if got != children:
        return "blown-up generators differ from the resolver's"
    return None


# ---------------------------------------------------------------------------
# the face sweep
# ---------------------------------------------------------------------------


def on_grid(values: Iterable[Any], order: int) -> str | None:
    """Criterion 8: every finite value lies on the 1/order! grid."""
    grid = math.factorial(order)
    for v in values:
        if v != INF and (Fraction(v) * grid).denominator != 1:
            return f"value {v} is off the 1/{order}! grid"
    return None


def polyhedron_points(texts: Sequence[str], variables: Sequence[str],
                      u_block: Sequence[str], y_block: Sequence[str]
                      ) -> list[tuple[Fraction, ...]]:
    """The projected points a/(nu - b) of every term with y-degree b < nu."""
    points = []
    for text in texts:
        terms = term_exponents(text, variables)
        nu = min(sum(e.values()) for e in terms)
        for exps in terms:
            b = sum(exps.get(y, 0) for y in y_block)
            if b < nu:
                points.append(tuple(Fraction(exps.get(u, 0), nu - b)
                                    for u in u_block))
    return points


def dominated(q: Sequence[Fraction], points: Sequence[Sequence[Fraction]]
              ) -> bool:
    """Whether q lies in conv(points) + the positive orthant (dim 1 or 2)."""
    if len(q) == 1:
        return any(p[0] <= q[0] for p in points)
    if any(p[0] <= q[0] and p[1] <= q[1] for p in points):
        return True
    # else q dominates a point t*a + (1-t)*b of an edge: each coordinate
    # bounds t from one side
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            lo, hi = Fraction(0), Fraction(1)
            for k in (0, 1):
                # t*(a_k - b_k) <= q_k - b_k
                slope, room = a[k] - b[k], q[k] - b[k]
                if slope > 0:
                    hi = min(hi, room / slope)
                elif slope < 0:
                    lo = max(lo, room / slope)
                elif room < 0:
                    lo, hi = Fraction(1), Fraction(0)
            if lo <= hi:
                return True
    return False


def check_sweep(outcome: Any, order: int, texts: Sequence[str],
                variables: Sequence[str]) -> str | None:
    """Grid discreteness of minimal/empty results and that preparation
    only shrank the polyhedron (criteria 8 and 6)."""
    result, frame = outcome.result, outcome.frame
    if result.status in ("minimal", "empty"):
        values = [outcome.delta]
        for side in outcome.faces:
            values.extend(side[:3])
        problem = on_grid(values, order)
        if problem:
            return problem
    points = polyhedron_points(texts, variables, frame.u_block, frame.y_block)
    for v in result.polyhedron.vertices:
        if not dominated(v, points):
            return f"prepared vertex {v} outside the unprepared polyhedron"
    return None


def sweep_text(outcome: Any) -> str:
    """A canonical rendering of a sweep result, for digests."""
    result = outcome.result
    return repr((result.status, result.polyhedron.vertices,
                 result.solved_vertices, outcome.delta, outcome.faces))
