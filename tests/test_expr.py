"""The shared expression language, read through both of its parsers.

Each row pins the canonical text of a parse, or the error type and
message, for the tower field and for sequence tails.
"""

import re
from fractions import Fraction

import pytest

from ordtop.exact_field import format_element, parse_element
from ordtop.expr import (MAX_DEPTH, MAX_EXPONENT, ExprError, evaluate,
                         format_terms, number, parse)
from ordtop.reduced_power import format_tail, parse_tail

TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
DEEP = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
FLAT = "+".join(["1"] * (MAX_DEPTH + 1))


@pytest.mark.parametrize("text, canonical", [
    ("(1+a0)*(1-a0)", "1 - a0^2"),
    ("(a0^2*a1 - 2/3)/(a1 + 1)", "(-2/3 + a0^2*a1)/(1 + a1)"),
    ("-(a1/2)^-2 + 3", "(-4 + 3*a1^2)/(a1^2)"),
    ("0", "0"),
    ("a0 - a0", "0"),
    ("-a0*a7^3/(-4)", "1/4*a0*a7^3"),
    ("(2*a0 + 2)/(4 - 4*a0^2)", "(1/2)/(1 - a0)"),
])
def test_field_canonical_text(text, canonical):
    assert format_element(parse_element(text)) == canonical


@pytest.mark.parametrize("text, canonical", [
    ("(n-1)/(2*n+1)", "(-1/2 + 1/2*n)/(1/2 + n)"),
    ("n^-2 - 1", "(1 - n^2)/(n^2)"),
    ("0", "0"),
    ("n - n", "0"),
    ("-(3*n^2)/(-6*n)", "1/2*n"),
    ("(2/3)^3*n^2 + 1/(n+1)", "(1 + 8/27*n^2 + 8/27*n^3)/(1 + n)"),
    ("+-7", "-7"),
])
def test_tail_canonical_text(text, canonical):
    assert format_tail(parse_tail(text)) == canonical


@pytest.mark.parametrize("parser, text, error, message", [
    (parse_element, "q + 1", ExprError, "unknown variable 'q'; expected a0..a7"),
    (parse_element, "a8", ExprError, "unknown variable 'a8'; expected a0..a7"),
    (parse_element, "1/0", ZeroDivisionError, "cannot invert zero"),
    (parse_element, "(a0 - a0)^-1", ZeroDivisionError, "cannot invert zero"),
    (parse_element, DEEP, ExprError, TOO_DEEP),
    (parse_element, FLAT, ExprError, TOO_DEEP),
    (parse_element, "a0 a1", ExprError, "trailing input at token ('var', 'a1')"),
    (parse_tail, "m", ExprError, "unknown variable 'm'; expected n"),
    (parse_tail, "n/(n - n)", ZeroDivisionError, "division by zero in tail expression"),
    (parse_tail, "(n - n)^-3", ZeroDivisionError, "zero raised to a negative power"),
    (parse_tail, DEEP, ExprError, TOO_DEEP),
    (parse_tail, FLAT, ExprError, TOO_DEEP),
    (parse_tail, "n n", ExprError, "trailing input at token ('var', 'n')"),
])
def test_bad_input_table(parser, text, error, message):
    with pytest.raises(error) as info:
        parser(text)
    assert type(info.value) is error and str(info.value) == message


def test_unknown_variable_is_refused_before_evaluation():
    # the division by zero on the left is never computed
    with pytest.raises(ExprError, match="unknown variable 'm'"):
        parse_tail("1/0 + m")


@pytest.mark.parametrize("text", [5, None, ["n"]])
def test_parse_refuses_non_strings(text):
    with pytest.raises(ExprError, match="expression must be a string"):
        parse(text, ("n",))


def test_evaluate_folds_with_python_operators():
    ast = parse("-(x + 2)^2 / 4 - 3*x", ("x",))
    assert evaluate(ast, lambda kind, value: 6 if kind == "var" else value) == -34.0


def test_format_terms():
    assert format_terms([]) == "0"
    assert format_terms([(0, "x"), (0, "")]) == "0"
    assert format_terms([(-1, "x"), (2, ""), (-3, "y^2"), (1, "z")]) == "-x + 2 - 3*y^2 + z"


@pytest.mark.parametrize("value, want", [
    (2, Fraction(2)), (0.25, Fraction(1, 4)), (Fraction(-3, 4), Fraction(-3, 4)),
    ("-3/4", Fraction(-3, 4)), (" 1.5e3 ", Fraction(1500)), ("2E-2", Fraction(1, 50)),
    (f"1e{MAX_EXPONENT}", Fraction(10) ** MAX_EXPONENT), ("1e0_1", Fraction(10)),
])
def test_number_reads_payload_numbers(value, want):
    got = number(value)
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("value, message", [
    (f"1e{MAX_EXPONENT + 1}", "decimal exponent beyond"),
    (f"-2.5E-{MAX_EXPONENT + 1}", "decimal exponent beyond"),
    ("1e1_0000", "decimal exponent beyond"),
    ("1e", "Invalid literal"),
    ("sweet", "Invalid literal"),
    (float("inf"), "expected a finite number, got inf"),
    (float("nan"), "NaN"),
    ([1], "expected a finite number, got [1]"),
    (None, "expected a finite number, got None"),
])
def test_number_refuses(value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        number(value)
