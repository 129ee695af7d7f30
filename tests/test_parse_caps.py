"""Huge exponents, coefficients, characteristics and orders end with exit 3
and a message naming the limit, quickly and never with a traceback."""

from __future__ import annotations

import json
import time

import pytest

from surfres.cli import EXIT_OK, EXIT_SCOPE, main
from surfres.local_frame import MAX_DIRECTRIX_DEGREE
from surfres.exact_algebra import (
    MAX_PARSE_DIGITS,
    MAX_PARSE_EXPONENT,
    FieldDescriptor,
    ScopeError,
    parse_polynomial,
    to_string,
)


def run(tmp_path, capsys, command, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    start = time.perf_counter()
    code = main([command, str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.err, elapsed


def surface(text):
    return {"field": {"kind": "rationals"}, "variables": ["x", "y", "z"],
            "generators": [text]}


@pytest.mark.parametrize("exponent", ["1000000", "100000000000"])
def test_huge_exponents_end_quickly(tmp_path, capsys, exponent):
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface(f"x^2 + y^{exponent} + z^3"))
    assert elapsed < 5
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_EXPONENT" in err


def test_exponent_at_the_limit_is_accepted(tmp_path, capsys):
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface(f"x^2 + y^{MAX_PARSE_EXPONENT} + z^3"))
    assert code == EXIT_OK, err
    assert elapsed < 5


def test_oversized_constant_power_is_a_scope_error(tmp_path, capsys):
    code, err, _ = run(tmp_path, capsys, "analyze",
                       surface("x^2 + 2^15000*y^3 + z^5"))
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_EXPONENT" in err
    # under the exponent cap, but with about 5,000 digits
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface("x^2 + 99999^1000*y^3 + z^5"))
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_DIGITS" in err
    # a power of a power is refused before it is formed
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface("x^2 + ((7^900)^900)^900*y^3 + z^5"))
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_DIGITS" in err
    assert elapsed < 5


def test_oversized_integer_literal_is_a_scope_error(tmp_path, capsys):
    code, err, _ = run(tmp_path, capsys, "analyze",
                       surface(f"x^2 + {'7' * 5000}*y^3 + z^5"))
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_DIGITS" in err
    code, err, _ = run(tmp_path, capsys, "analyze",
                       surface(f"x^2 + {'7' * MAX_PARSE_DIGITS}*y^3 + z^5"))
    assert code == EXIT_OK, err


def test_oversized_computed_coefficient_is_a_scope_error(tmp_path, capsys):
    # solving the vertex translates y by a 199-digit multiple of u1, which
    # turns y^30 into coefficients of about 6,000 digits
    job = {"field": {"kind": "rationals"}, "variables": ["u1", "y"],
           "generators": [f"(y + {'7' * 199}*u1)^5 + y^30"],
           "frame": {"u": ["u1"], "y": ["y"]}}
    code, err, _ = run(tmp_path, capsys, "polyhedron", job)
    assert code == EXIT_SCOPE
    assert "too large to print" in err


def test_large_characteristic_is_a_scope_error(tmp_path, capsys):
    # a prime near 10**20: trial division would not end
    job = dict(surface("x^2 + y^3 + z^5"),
               field={"kind": "prime_field", "characteristic": 10**20 + 39})
    code, err, elapsed = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_SCOPE
    assert "MAX_CHARACTERISTIC" in err
    assert elapsed < 5
    job["field"]["characteristic"] = 97
    code, err, _ = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err


def test_high_order_initial_form_is_a_scope_error(tmp_path, capsys):
    # the directrix of a degree-20 form took over a minute before the cap
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface("(x+y+z)^20"))
    assert code == EXIT_SCOPE
    assert "MAX_DIRECTRIX_DEGREE" in err
    assert elapsed < 5
    code, err, _ = run(tmp_path, capsys, "analyze",
                       surface(f"(x+y+z)^{MAX_DIRECTRIX_DEGREE}"))
    assert code == EXIT_OK, err


def test_caps_in_the_library():
    field = FieldDescriptor.rationals()
    with pytest.raises(ScopeError, match="MAX_PARSE_EXPONENT"):
        parse_polynomial(f"x^{MAX_PARSE_EXPONENT + 1}", field, ("x",))
    with pytest.raises(ScopeError, match="MAX_PARSE_DIGITS"):
        parse_polynomial("1" * (MAX_PARSE_DIGITS + 1), field, ("x",))
    f = parse_polynomial("2^1000*x", field, ("x",))
    assert to_string(f) == f"{2 ** 1000}*x"
    # exponents and literals leave the other fields alone
    f2 = FieldDescriptor.prime_field(2)
    assert parse_polynomial("3^1000*x", f2, ("x",)) == parse_polynomial("x", f2, ("x",))
