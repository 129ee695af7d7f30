"""The directrix memo of one ``resolve`` run.

``local_frame.compute_directrix`` looks its result up by the tuple of
nonzero initial forms inside a ``directrix_memo`` block, which ``resolve``
opens for its whole run.  These tests count the directrix computations
behind it (calls of ``_directrix_rows``, where both of its paths start):
outside a block nothing is memoised, inside a run each distinct tuple of
initial forms is computed once, and two runs share nothing.  The traces are
the same with the memo swapped for one that never remembers, on the named
jobs, on seeded surfaces over Q, F_2, F_3 and F_5 and on a run with a
declared point in a residue extension; equal exponent vectors over two
fields are two keys.
"""

from __future__ import annotations

import random

import pytest

from surfres import local_frame
from surfres.exact_algebra import (
    FINITE_EXTENSION,
    PRIME_FIELD,
    FieldDescriptor,
    Polynomial,
    parse_polynomial,
)
from surfres.local_frame import Frame, compute_directrix, directrix_memo, initial_form
from surfres.resolution_driver import (
    FRESH_LABELS,
    initial_chart,
    resolve,
    trace_to_jsonable,
)

from test_acceptance import random_surface
from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
XYZ = ("x", "y", "z")
SURFACE = "x^2 + y^9*z^10"
SEEDED_SURFACES = 12


@pytest.fixture
def ridge_calls(monkeypatch):
    """The inputs of every uncached directrix computation, as tuples, in
    call order."""
    calls = []
    rows = local_frame._directrix_rows

    def counted(initials):
        calls.append(tuple(initials))
        return rows(initials)
    monkeypatch.setattr(local_frame, "_directrix_rows", counted)
    return calls


class NeverRemembers:
    """A stand-in for the memo's context variable with no memo ever open."""

    def get(self):
        return None

    def set(self, value):
        return None

    def reset(self, token):
        pass


def forms(text: str, field: FieldDescriptor = QQ) -> list[Polynomial]:
    f = parse_polynomial(text, field, XYZ)
    return [initial_form(f, XYZ)]


def frame() -> Frame:
    return Frame(u_block=("y", "z"), y_block=("x",))


def test_outside_a_run_every_call_computes(ridge_calls):
    first = compute_directrix(forms("x^2 + y^2"), frame())
    second = compute_directrix(forms("x^2 + y^2"), frame())
    assert first == second
    assert len(ridge_calls) == 2


def test_a_block_hands_out_fresh_lists(ridge_calls):
    with directrix_memo():
        _r, first = compute_directrix(forms("x^2 + y^2"), frame())
        first.clear()
        assert compute_directrix(forms("x^2 + y^2"), frame())[1] != []
        with directrix_memo():  # a nested block reuses the open memo
            compute_directrix(forms("x^2 + y^2"), frame())
    assert len(ridge_calls) == 1
    compute_directrix(forms("x^2 + y^2"), frame())
    assert len(ridge_calls) == 2  # the memo closed with its block


def test_equal_exponent_vectors_over_two_fields_are_two_keys(ridge_calls):
    """x^2 + y^2 has the directrix x = y = 0 over Q, and x + y = 0 over F_2,
    where it is (x + y)^2; both store the coefficients as the int 1."""
    with directrix_memo():
        over_q = compute_directrix(forms("x^2 + y^2"), frame())
        over_f2 = compute_directrix(forms("x^2 + y^2", F2), frame())
    assert over_q[0] == 2 and over_f2[0] == 1
    assert over_f2 == compute_directrix(forms("x^2 + y^2", F2), frame())
    assert len(ridge_calls) == 3


def resolve_counted(ridge_calls: list) -> list:
    """The ridge inputs of one ``resolve`` of the surface, not counting the
    construction of its root chart, which runs outside the run."""
    root = initial_chart(QQ, XYZ, SURFACE)
    ridge_calls.clear()
    resolve(root)
    return list(ridge_calls)


def test_one_run_computes_each_tuple_of_initial_forms_once(ridge_calls,
                                                           monkeypatch):
    memoised = resolve_counted(ridge_calls)
    assert memoised and len(set(memoised)) == len(memoised)
    monkeypatch.setattr(local_frame, "_DIRECTRIX_MEMO", NeverRemembers())
    unmemoised = resolve_counted(ridge_calls)
    assert set(unmemoised) == set(memoised)
    assert len(unmemoised) > 2 * len(memoised)


def test_two_runs_share_nothing(ridge_calls):
    assert resolve_counted(ridge_calls) == resolve_counted(ridge_calls)


def runs():
    """(name, thunk) of the runs whose traces must not see the memo."""
    out = [
        ("surface-default", lambda: resolve(initial_chart(QQ, XYZ, SURFACE))),
        ("surface-fresh", lambda: resolve(initial_chart(QQ, XYZ, SURFACE),
                                          label_mode=FRESH_LABELS)),
        ("crossing-lines-cubic", lambda: resolve(
            initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"))),
        ("two-divisor-chart", lambda: resolve(whirl_chart())),
    ]
    root_of = Polynomial.from_vectors(F2, ("y",), {(2,): 1, (1,): 1, (0,): 1})
    out.append(("F2 declared root of y^2 + y + 1", lambda: resolve(
        initial_chart(F2, XYZ, SURFACE),
        declared_points={"root/z": ({"y": root_of},)})))
    rng = random.Random(20261018)
    drawn = {}
    while len(drawn) < SEEDED_SURFACES:
        name, field, text = random_surface(rng)
        drawn.setdefault((name, text), field)
    for (name, text), field in drawn.items():
        out.append((f"{name}: {text}",
                    lambda field=field, text=text: resolve(
                        initial_chart(field, XYZ, text))))
    return out


RUNS = runs()


def test_the_seeded_runs_cover_every_field():
    names = {name.split(":")[0] for name, _run in RUNS}
    assert {"Q", "F2", "F3", "F5"} <= names


@pytest.mark.parametrize("name, run", RUNS, ids=[name for name, _ in RUNS])
def test_traces_are_the_same_without_the_memo(name, run, monkeypatch):
    with_memo = trace_to_jsonable(run())
    monkeypatch.setattr(local_frame, "_DIRECTRIX_MEMO", NeverRemembers())
    assert trace_to_jsonable(run()) == with_memo


def test_the_declared_point_lies_in_a_residue_extension(ridge_calls):
    """The declared point's directrix is computed over F_4."""
    _name, run = next(item for item in RUNS if "declared" in item[0])
    run()
    assert {initials[0].field.kind for initials in ridge_calls} == {
        PRIME_FIELD, FINITE_EXTENSION}
