"""Huge exponents, coefficients, characteristics and orders end with exit 3
and a message naming the limit, quickly and never with a traceback; text
nested too deeply to parse ends with exit 2."""

from __future__ import annotations

import json
import random
import time

import pytest

from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main
from surfres.local_frame import MAX_DIRECTRIX_DEGREE
from surfres.exact_algebra import (
    MAX_PARSE_DIGITS,
    MAX_PARSE_EXPONENT,
    MAX_RESIDUE_DEGREE,
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


@pytest.mark.parametrize("degree, expected", [(10, EXIT_OK), (11, EXIT_SCOPE)])
def test_the_directrix_degree_cap_is_ten(tmp_path, capsys, degree, expected):
    assert MAX_DIRECTRIX_DEGREE == 10
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface(f"(x+y+z)^{degree}"))
    assert code == expected, err
    if expected == EXIT_SCOPE:
        assert "MAX_DIRECTRIX_DEGREE" in err
    assert elapsed < 10


def root_of_job(degree, seed):
    """analyze at a root of a seeded random monic condition over F_97."""
    rng = random.Random(seed)
    condition = " + ".join([f"x^{degree}"] + [
        f"{rng.randrange(1, 97)}*x^{i}" for i in range(degree - 1, 0, -1)]
        + [str(rng.randrange(1, 97))])
    return {"field": {"kind": "prime_field", "characteristic": 97},
            "variables": ["x", "y", "z"], "generators": ["z^2 + y^3 + x^2*y^2"],
            "point": {"moves": {"x": {"root_of": condition, "name": "x"}}}}


def test_a_high_degree_residue_condition_is_a_scope_error(tmp_path, capsys):
    # the irreducibility test of a degree-200 condition took 3 s before the cap
    code, err, elapsed = run(tmp_path, capsys, "analyze", root_of_job(200, 1))
    assert code == EXIT_SCOPE
    assert "MAX_RESIDUE_DEGREE" in err
    assert elapsed < 1
    # at the limit: seed 7 gives an irreducible condition, the test's
    # costliest case, and a reducible one is an input error
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             root_of_job(MAX_RESIDUE_DEGREE, 7))
    assert code == EXIT_OK, err
    assert elapsed < 5
    code, err, _ = run(tmp_path, capsys, "analyze",
                       root_of_job(MAX_RESIDUE_DEGREE, 1))
    assert code == EXIT_INPUT
    assert "not irreducible" in err


def test_deeply_nested_text_is_an_input_error(tmp_path, capsys):
    # each level of parentheses takes four stack frames of the parser, so
    # this depth is far beyond the interpreter's recursion limit
    nested = "(" * 10_000 + "y" + ")" * 10_000
    code, err, elapsed = run(tmp_path, capsys, "analyze",
                             surface(f"x^2 + {nested}^3 + z^5"))
    assert code == EXIT_INPUT
    assert "the polynomial text nests too deeply" in err
    assert elapsed < 5
    code, err, _ = run(tmp_path, capsys, "analyze",
                       surface(f"x^2 + {'(' * 50}y{')' * 50}^3 + z^5"))
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
