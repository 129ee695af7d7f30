"""Differential test of the polynomial parser.

``exact_algebra._Parser`` builds every node of the grammar as a dict from
exponent vector to stored coefficient and makes one ``Polynomial`` at the
end.  ``OracleParser`` below is the earlier parser, which built, reduced and
sorted a whole ``Polynomial`` at every atom, power, product and sum, and
read the (kind, text) tokens of ``oracle_tokenize``, the earlier tokenizer,
which matched one token at a time.  On
seeded random texts over Q, F_2, F_3, F_5, F_4 = F_2[s]/(s^2 + s + 1) and
F_3(t), in rings with and without a repeated variable name, and on the
printed chart texts of the named traces over Q, both must give the same
polynomial, or raise the same exception with the same message.
The texts use parentheses, ``^0``, unary minus, division by constants, by
zero and by non-constants, sums that cancel (mod p too), unknown names,
broken syntax, and Unicode white space and digits.  They run at the real
caps and at tight ones, so that each ``MAX_PARSE_*`` cap is hit often,
including right after a cancellation.

A variable and its power are formed from the variable's unit vector, a
power of a one-term node is formed directly, its exponent vector scaled
and its coefficient raised by ``FieldDescriptor.native_power``, and a
product of two one-term nodes is one vector addition.  One-term texts
(``^0`` included) must parse as the oracle parses them, and over F_p,
F_p(t) and F_q ``native_power`` must equal the repeated-squaring product.
"""

from __future__ import annotations

import operator
import random
import re

import pytest

from surfres import exact_algebra as ea
from surfres.cli import build_chart
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    parse_polynomial,
)
from surfres.resolution_driver import resolve, trace_to_jsonable

from test_report_writer import NAMED_JOBS

FIELDS = {
    "Q": FieldDescriptor.rationals(),
    **{f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 3, 5)},
    "F4": FieldDescriptor.finite_extension(2, (1, 1, 1)),
    "F3(t)": FieldDescriptor.rational_functions(3),
}
RINGS = [("x", "y", "z"), ("x", "y", "x")]
CASES = 400


# ---------------------------------------------------------------------------
# the oracle: one canonical Polynomial per node
# ---------------------------------------------------------------------------


def oracle_coefficient_bits(f: Polynomial) -> int:
    if f.field.kind != ea.RATIONALS:
        return 0
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in f.vectors), default=0)


class OracleParser:
    """The parser with ``Polynomial`` arithmetic at every node.  The caps
    are read from ``exact_algebra`` at each use, so a patched cap holds
    for both parsers."""

    def __init__(self, tokens, field, variables):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.variables = variables

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of polynomial text")
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise InputError(f"expected {op!r} in polynomial text")

    def parse(self):
        result = self.expr()
        if self.peek() is not None:
            raise InputError(f"trailing tokens in polynomial text: {self.peek()!r}")
        return result

    def expr(self):
        negate = False
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            negate = True
        elif tok == ("op", "+"):
            self.take()
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                result = result + self.term()
            elif tok == ("op", "-"):
                self.take()
                result = result - self.term()
            else:
                return result

    def term(self):
        result = self.power()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                result = self.multiply(result, self.power())
            elif tok == ("op", "/"):
                self.take()
                divisor = self.power()
                if not divisor.is_constant() or divisor.is_zero:
                    raise InputError("division is only allowed by nonzero coefficients")
                result = result.scale(self.field.one() / divisor.constant_coefficient())
            else:
                return result

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise InputError("exponent must be a nonnegative integer")
            e = self.integer(text)
            if e > ea.MAX_PARSE_EXPONENT:
                raise ScopeError(
                    f"the exponent {e} in the polynomial text is over the "
                    f"limit of {ea.MAX_PARSE_EXPONENT} (MAX_PARSE_EXPONENT)")
            if (oracle_coefficient_bits(base) - 1) * e > ea._MAX_PARSE_BITS:
                raise ScopeError(
                    f"a power in the polynomial text builds a coefficient of "
                    f"more than {ea.MAX_PARSE_DIGITS} digits (MAX_PARSE_DIGITS)")
            one = Polynomial.constant(self.field, self.variables, self.field.one())
            return ea._power(base, e, one, self.multiply)
        return base

    def integer(self, text):
        if len(text) > ea.MAX_PARSE_DIGITS:
            raise ScopeError(
                f"an integer of {len(text)} digits in the polynomial text is "
                f"over the limit of {ea.MAX_PARSE_DIGITS} digits (MAX_PARSE_DIGITS)")
        return int(text)

    def multiply(self, a, b):
        if len(a.vectors) * len(b.vectors) > ea.MAX_PARSE_PRODUCT:
            raise ScopeError(
                f"expanding the polynomial text needs a product of "
                f"{len(a.vectors)} by {len(b.vectors)} terms, over the limit of "
                f"{ea.MAX_PARSE_PRODUCT} term products (MAX_PARSE_PRODUCT)")
        return a * b

    def atom(self):
        kind, text = self.take()
        if kind == "int":
            return Polynomial.constant(self.field, self.variables,
                                       self.field.native_int(self.integer(text)))
        if kind == "name":
            if text in self.variables:
                return Polynomial.variable(self.field, self.variables, text)
            if (self.field.kind == ea.RATIONAL_FUNCTIONS
                    and text == self.field.transcendental_name):
                return Polynomial.constant(self.field, self.variables,
                                           self.field.transcendental())
            if (self.field.kind == ea.FINITE_EXTENSION
                    and text == self.field.generator_name):
                return Polynomial.constant(self.field, self.variables,
                                           self.field.generator())
            raise InputError(f"unknown variable {text!r}")
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise InputError(f"unexpected token {text!r} in polynomial text")


ORACLE_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|\-|/|\(|\)))")


def oracle_tokenize(text):
    """The text's (kind, text) tokens, one regex match at a time."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = ORACLE_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"unexpected character in polynomial: {rest[0]!r}")
        if m.group(1) is not None:
            tokens.append(("int", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


def oracle_parse(text, field, variables):
    vs = tuple(variables)
    tokens = oracle_tokenize(text)
    if not tokens:
        raise InputError("empty polynomial text")
    return OracleParser(tokens, field, vs).parse()


# ---------------------------------------------------------------------------
# random texts
# ---------------------------------------------------------------------------


def random_atom(rng: random.Random, names: list[str], depth: int) -> str:
    roll = rng.random()
    if roll < 0.3:
        return str(rng.choice([0, 1, 2, 3, 4, 5, 6, 9, 10, 12, 25, 125]))
    if roll < 0.7 or depth <= 0:
        return rng.choice(names)
    return f"({random_expr(rng, names, depth - 1)})"


def random_power(rng: random.Random, names: list[str], depth: int) -> str:
    atom = random_atom(rng, names, depth)
    return f"{atom}^{rng.choice([0, 1, 2, 3, 4])}" if rng.random() < 0.3 else atom


def random_term(rng: random.Random, names: list[str], depth: int) -> str:
    text = random_power(rng, names, depth)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        if rng.random() < 0.8:
            text += f"*{random_power(rng, names, depth)}"
        else:
            divisor = rng.choice(["2", "3", "(1 + 1)", "0", "(2 - 2)", "(3 - 3)",
                                  "y", "(x - x + 5)", "4^0", names[-1]])
            text += f"/{divisor}"
    return text


def random_expr(rng: random.Random, names: list[str], depth: int = 2) -> str:
    text = random_term(rng, names, depth)
    if rng.random() < 0.25:
        text = f"-{text}"
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        sign = rng.choice("+-")
        if rng.random() < 0.3:
            # a sum in which the terms of ``text`` cancel
            other = random_term(rng, names, depth)
            text = f"{text} {sign} {other} - ({text})"
        else:
            text += f" {sign} {random_term(rng, names, depth)}"
    return text


def broken(rng: random.Random, text: str) -> str:
    """The text with a syntax fault, or odd white space or digits, at a
    random place."""
    fault = rng.choice([")", "(", "^", "^x", "*", "+*", "@", " 7 7", "^-1", "#",
                        "\u00a0", "\t\n ", "\x1c", "\u2003", "é", "\u0663", " "])
    at = rng.randrange(len(text) + 1)
    return text[:at] + fault + text[at:]


def random_text(rng: random.Random, field: FieldDescriptor) -> str:
    names = ["x", "y", "z"]
    if field.kind == ea.FINITE_EXTENSION:
        names.append(field.generator_name)
    if field.kind == ea.RATIONAL_FUNCTIONS:
        names.append(field.transcendental_name)
    if rng.random() < 0.05:
        names.append("q")  # an unknown name
    text = random_expr(rng, names)
    return broken(rng, text) if rng.random() < 0.1 else text


def outcome(parse, text, field, variables):
    """The parsed polynomial in stored form (coefficient types included),
    or the exception type and message."""
    try:
        f = parse(text, field, variables)
    except (InputError, ScopeError) as err:
        return type(err).__name__, str(err)
    return f.field, f.variables, [(vec, type(c), c) for vec, c in f.vectors]


def assert_agree(text, field, variables):
    assert outcome(parse_polynomial, text, field, variables) == \
        outcome(oracle_parse, text, field, variables), text


# The tight caps make the random texts hit each cap often: a product of
# more than 6 term products, an exponent over 3, an integer of 3 digits and
# a power building a coefficient of more than 6 bits are refused.
TIGHT = {"MAX_PARSE_PRODUCT": 6, "MAX_PARSE_EXPONENT": 3,
         "MAX_PARSE_DIGITS": 2, "_MAX_PARSE_BITS": 6}


@pytest.mark.parametrize("caps", ["real", "tight"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_random_texts_parse_as_the_oracle_does(name, caps, monkeypatch):
    if caps == "tight":
        for key, value in TIGHT.items():
            monkeypatch.setattr(ea, key, value)
    field = FIELDS[name]
    rng = random.Random(f"{name}:{caps}")
    outcomes = set()
    for _ in range(CASES):
        text = random_text(rng, field)
        variables = RINGS[0] if rng.random() < 0.9 else RINGS[1]
        assert_agree(text, field, variables)
        result = outcome(parse_polynomial, text, field, variables)
        outcomes.add(result[0] if isinstance(result[0], str) else "parsed")
    # the texts reach parsed results and both error kinds
    assert outcomes >= ({"parsed", "InputError", "ScopeError"} if caps == "tight"
                        else {"parsed", "InputError"})


def big_sum(count: int, cancelled: int) -> str:
    """A sum of ``count`` distinct monomials, plus ``cancelled`` terms that
    cancel to zero."""
    terms = [f"x^{i}*y^{count - i}" for i in range(count)]
    terms += [f"z^{j} - z^{j}" for j in range(1, cancelled + 1)]
    return " + ".join(terms)


@pytest.mark.parametrize("text", [
    # MAX_PARSE_PRODUCT: 333 * 300 = 99,900 products fit the cap only once
    # the cancelled terms are dropped; 400 * 300 do not fit
    pytest.param(f"({big_sum(333, 2)}) * ({big_sum(300, 0)})", id="product-fits"),
    pytest.param(f"({big_sum(400, 3)}) * ({big_sum(300, 1)})", id="product-over"),
    # MAX_PARSE_EXPONENT
    "x^1000 + y", "x^1001", "(x - x)^1001",
    # MAX_PARSE_DIGITS, on an integer and on a power's coefficient
    pytest.param("1" * 1000 + "*x", id="digits-fit"),
    pytest.param("1" * 1001 + "*x", id="digits-over"),
    "(12345678901234567890*x)^52", "(12345678901234567890*x)^53",
])
def test_texts_at_the_real_caps_parse_as_the_oracle_does(text):
    for field in (FIELDS["Q"], FIELDS["F3"]):
        assert_agree(text, field, ("x", "y", "z"))


@pytest.mark.parametrize("text", ["x", "q", "x +", "", "  ", "@", "1" * 1001,
                                  "(", "3 - 3", "x/(y - y)"],
                         ids=lambda text: repr(text[:12]))
def test_a_repeated_variable_name_is_refused_where_the_oracle_refuses_it(text):
    for field in FIELDS.values():
        assert_agree(text, field, ("x", "y", "x"))


def named_chart_texts() -> list[tuple[str, tuple[str, ...]]]:
    """Each text of the named traces' charts as ``export --format json``
    prints it, with the chart's variables: the generators, the boundary
    generators and the stratum conditions, the texts that the benchmark's
    ``chart-queries`` jobs parse."""
    texts = set()
    for job in NAMED_JOBS.values():
        options = job.get("options", {})
        trace = resolve(build_chart(job),
                        label_mode=options.get("label_mode", "default"))
        for chart in trace_to_jsonable(trace)["charts"]:
            vs = tuple(chart["variables"])
            texts.update((text, vs) for text in chart["generators"])
            texts.update((b["generator"], vs) for b in chart["boundary"])
            for component in chart["stratum"]:
                texts.update((q, vs) for q in component["conditions"])
    return sorted(texts)


@pytest.mark.parametrize("caps", ["real", "tight"])
def test_printed_chart_texts_parse_as_the_oracle_does(caps, monkeypatch):
    texts = named_chart_texts()
    assert len(texts) > 150
    if caps == "tight":
        for key, value in TIGHT.items():
            monkeypatch.setattr(ea, key, value)
    for text, variables in texts:
        assert_agree(text, FIELDS["Q"], variables)


ONE_TERM_TEXTS = ["(x/2)^0", "x^0", "(2*x)^3", "(x*y)^2*z", "3^0", "0^0", "0^3",
                  "(x - x)^0", "(2/3*x*y^2)^3*(3/2*z)^2", "(5*x*y)^4/5",
                  "(25*z^3)^2*(-x)^3", "(x*y*z)^7*(x^2)^0"]


@pytest.mark.parametrize("name", list(FIELDS))
def test_one_term_powers_and_products_parse_as_the_oracle_does(name):
    field = FIELDS[name]
    extra = {ea.RATIONAL_FUNCTIONS: ["(t^2*y)^4*(t*x)^3", "(t/(t + 1)*y)^0",
                                      "((t + 1)*x)^5"],
             ea.FINITE_EXTENSION: ["(s*x)^5*(s*y)^2", "(s*x)^0", "((s + 1)*z)^7"]}
    for text in ONE_TERM_TEXTS + extra.get(field.kind, []):
        assert_agree(text, field, ("x", "y", "z"))
    one = Polynomial.constant(field, ("x", "y", "z"), field.one())
    assert parse_polynomial("(3*x*y)^0", field, ("x", "y", "z")) == one


POWER_FIELDS = {
    **{f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 5, 97)},
    **{f"F{p}(t)": FieldDescriptor.rational_functions(p) for p in (2, 3, 5)},
    "F4": FieldDescriptor.finite_extension(2, (1, 1, 1)),
    "F8": FieldDescriptor.finite_extension(2, (1, 1, 0, 1)),
    "F9": FieldDescriptor.finite_extension(3, (1, 0, 1)),
    "F25": FieldDescriptor.finite_extension(5, (2, 0, 1)),
}


@pytest.mark.parametrize("name", list(POWER_FIELDS))
def test_native_power_is_the_repeated_squaring_product(name):
    field = POWER_FIELDS[name]
    if field.kind == ea.RATIONAL_FUNCTIONS:
        rng = random.Random(name)
        t = field.transcendental()
        elements = [field.zero(), field.one()] + [
            (t ** rng.randint(0, 3) + field.from_int(rng.randint(0, 4)))
            / (t + field.from_int(rng.randint(0, 4))) for _ in range(12)]
    else:
        elements = field.elements()
    one = field.native_int(1)
    for c in map(field.to_native, elements):
        for e in range(14):
            want = field.to_native(ea._power(c, e, one, operator.mul))
            assert field.native_power(c, e) == want, (c, e)
