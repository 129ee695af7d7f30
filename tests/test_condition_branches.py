"""Branches that act on non-coordinate conditions, against independent oracles.

* ``locate_point`` moving a stratum component that carries a condition:
  the component is kept exactly when the new point lies on it (checked by
  evaluating the condition with sympy), and its kept condition is the
  translated one (expanded by sympy).
* ``resolution_driver._component_contains`` with a condition on the
  containing component: every containment it reports holds on the points
  of F_p^3, counted by brute force, and on hand-picked pairs its answer
  matches the brute-force one.
* ``char_polyhedron._uni_roots`` over F_p(t): every returned element is a
  root, a certified answer is the whole root set, found by trying every
  quotient of low-degree polynomials in t, and the p-th powers of a linear
  factor are always certified.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from surfres import char_polyhedron as cp
from surfres.blowup_engine import StratumComponent, locate_point, make_chart
from surfres.exact_algebra import FieldDescriptor, parse_polynomial, to_string
from surfres.resolution_driver import _component_contains

sympy = pytest.importorskip("sympy")

QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")
SYMBOLS = dict(zip(XYZ, sympy.symbols(XYZ)))


def sym(text: str):
    return sympy.expand(sympy.sympify(text.replace("^", "**"), locals=SYMBOLS))


# ---------------------------------------------------------------------------
# locate_point on stratum components with conditions
# ---------------------------------------------------------------------------

# (coordinate part, condition) of each component; every condition vanishes
# at the origin, as a component through the chart origin must
COMPONENTS = [
    (("x",), "y - z"),
    (("x",), "y^2 - y*z"),
    (("x",), "y^2 - y"),
    (("x",), "y*z + z"),
    (("z",), "x^2 + y^3 - y"),
    (("x", "y"), None),
    (("z",), None),
]
MOVES = [{"y": 1}, {"z": 2}, {"y": 1, "z": 1}, {"y": -1}, {"z": -1}]


@pytest.mark.parametrize("moves", MOVES, ids=lambda m: ",".join(
    f"{v}={a}" for v, a in m.items()))
def test_locate_point_moves_each_conditioned_component(moves):
    f = parse_polynomial("x^2 + y^3 + z^5", QQ, XYZ)
    stratum = tuple(
        StratumComponent(cid=i, variables=names, label=0,
                         conditions=() if cond is None
                         else (parse_polynomial(cond, QQ, XYZ),))
        for i, (names, cond) in enumerate(COMPONENTS))
    chart = make_chart((f,), ("y", "z"), ("x",))
    chart = replace(chart, stratum=stratum)
    located = locate_point(chart, {v: Fraction(a) for v, a in moves.items()})

    point = {SYMBOLS[v]: moves.get(v, 0) for v in XYZ}
    shift = {SYMBOLS[v]: SYMBOLS[v] + a for v, a in moves.items()}
    kept = {c.cid: c for c in located.stratum}
    checked_conditions = 0
    for cid, (names, cond) in enumerate(COMPONENTS):
        on_it = (all(moves.get(v, 0) == 0 for v in names)
                 and (cond is None or sym(cond).subs(point) == 0))
        assert (cid in kept) == on_it, (cid, moves)
        if not on_it:
            continue
        assert kept[cid].variables == names
        if cond is None:
            assert kept[cid].conditions == ()
            continue
        (moved,) = kept[cid].conditions
        assert sym(to_string(moved)) == sympy.expand(
            sym(cond).subs(shift, simultaneous=True))
        checked_conditions += 1
    # a condition the point lies on is translated, not dropped, so every
    # move above keeps at least one conditioned component
    assert checked_conditions


# ---------------------------------------------------------------------------
# _component_contains with a condition
# ---------------------------------------------------------------------------

P = 3
F3 = FieldDescriptor.prime_field(P)
POINTS = list(itertools.product(range(P), repeat=3))
CONDITIONS = [None, "y - z", "y + z", "y^2 - z", "y*z", "x + y", "z^2 + y",
              "y^2 + y*z", "x*y - z"]
COORDINATE_PARTS = [frozenset(s) for k in (1, 2, 3)
                    for s in itertools.combinations(XYZ, k)]


def zero_set(names: frozenset, cond: str | None) -> set[tuple[int, ...]]:
    """The F_3-points of V(names, cond), by evaluating every point."""
    out = set()
    for pt in POINTS:
        values = dict(zip(XYZ, pt))
        if any(values[v] for v in names):
            continue
        if cond is not None and sym(cond).subs(
                {SYMBOLS[v]: a for v, a in values.items()}) % P:
            continue
        out.add(pt)
    return out


def raw(names: frozenset, cond: str | None):
    return names, None if cond is None else parse_polynomial(cond, F3, XYZ)


def test_reported_containment_holds_on_every_point():
    components = [(names, cond) for names in COORDINATE_PARTS
                  for cond in CONDITIONS]
    zero_sets = {c: zero_set(*c) for c in components}
    rng = random.Random(20261018)
    with_condition = 0
    for a, b in [(rng.choice(components), rng.choice(components))
                 for _ in range(600)]:
        if _component_contains(raw(*a), raw(*b)):
            assert zero_sets[b] <= zero_sets[a], (a, b)
            with_condition += a[1] is not None
    assert with_condition > 20


@pytest.mark.parametrize("a, b, expected", [
    # the condition vanishes on b's coordinate part: contained
    ((frozenset("x"), "y - z"), (frozenset("xyz"), None), True),
    ((frozenset("x"), "y*z"), (frozenset("xy"), None), True),
    # the same condition on the same coordinate part: contained
    ((frozenset("x"), "y - z"), (frozenset("x"), "y - z"), True),
    # the restricted condition equals b's condition
    ((frozenset("x"), "x + y"), (frozenset("xz"), "y"), True),
    # the condition survives on b's coordinate part: not contained
    ((frozenset("x"), "y - z"), (frozenset("xy"), None), False),
    ((frozenset("x"), "y - z"), (frozenset("x"), "y + z"), False),
    ((frozenset("x"), "y^2 - z"), (frozenset("xz"), None), False),
    # b's coordinate part is not inside a's: not contained
    ((frozenset("xy"), "z^2 + y"), (frozenset("x"), None), False),
])
def test_containment_with_a_condition_matches_brute_force(a, b, expected):
    assert _component_contains(raw(*a), raw(*b)) is expected
    assert (zero_set(*b) <= zero_set(*a)) is expected


# ---------------------------------------------------------------------------
# _uni_roots over F_p(t)
# ---------------------------------------------------------------------------


def low_degree_elements(field: FieldDescriptor, degree: int) -> list:
    """Every a/b with deg a, deg b <= degree and b monic, as field elements."""
    t = field.transcendental()
    p = field.characteristic

    def polys(monic: bool):
        for coeffs in itertools.product(range(p), repeat=degree + 1):
            if monic and not any(coeffs):
                continue
            if monic and coeffs[max(i for i, c in enumerate(coeffs) if c)] != 1:
                continue
            value = field.zero()
            for c in reversed(coeffs):
                value = value * t + field.from_int(c)
            yield value

    return list({num / den for num in polys(False) for den in polys(True)})


def value_at(coeffs: list, x, field: FieldDescriptor):
    """sum c_i x^i for coefficients listed from low to high degree."""
    out = field.zero()
    for c in reversed(coeffs):
        out = out * x + c
    return out


def times_linear(coeffs: list, root, field: FieldDescriptor) -> list:
    """The coefficients (low to high) of coeffs * (X - root)."""
    out = [field.zero()] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] - c * root
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_uni_roots_over_rational_functions(p):
    field = FieldDescriptor.rational_functions(p, "t")
    t = field.transcendental()
    one = field.one()
    candidates = low_degree_elements(field, 2)
    rng = random.Random(p)
    picks = [t, t + one, one / t, (t * t + one) / (t + one), field.zero()]
    # (coefficients, whether the search must certify its answer): a linear
    # factor's p-th powers are found by taking p-th roots of the coefficients
    cases = []
    for r in picks:
        power = [one]
        for k in range(1, p * p + 1):
            power = times_linear(power, r, field)
            if k in (1, p, p * p):
                cases.append((power, True))            # (X - r)^k
    for _ in range(6):
        r, s = rng.sample(picks, 2)
        cases.append((times_linear(times_linear([one], r, field), s, field), False))
    cases.append(([-t] + [field.zero()] * (p - 1) + [one], False))   # X^p - t

    uncertified_seen = 0
    for coeffs, must_certify in cases:
        roots, certified = cp._uni_roots(coeffs, field)
        for r in roots:
            assert not value_at(coeffs, r, field)
        brute = {c for c in candidates if not value_at(coeffs, c, field)}
        assert set(roots) <= brute
        assert certified or not must_certify
        if certified:
            # every root of these cases is in the candidate set, so a
            # certified answer must find exactly the brute-force roots
            assert set(roots) == brute
        else:
            uncertified_seen += 1
    assert uncertified_seen
