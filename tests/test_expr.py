"""The shared expression language, read through both of its parsers.

Each row pins the canonical text of a parse, or the error type and
message, for the tower field and for sequence tails.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordtop.exact_field import FieldElement, format_element, parse_element
from ordtop.expr import (MAX_BITS, MAX_DEPTH, MAX_EXPONENT, MAX_TOKENS,
                         ExprError, evaluate, format_terms, number)
from ordtop.reduced_power import RatFunc, format_tail, parse_tail

TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
TOO_LONG = f"expression longer than {MAX_TOKENS} tokens"
TOO_BIG = f"expression numbers pass the size cap of {MAX_BITS} bits"
DEEP = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
# a flat sum one token past the cap: MAX_TOKENS // 2 + 1 ones, one '+' fewer
FLAT = "+".join(["1"] * (MAX_TOKENS // 2 + 1))
# five powers at the power cap: each 14000 bits, their product past MAX_BITS
BIG = "*".join(["2^14000"] * 5)


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
    pytest.param(parse_element, FLAT, ExprError, TOO_LONG,
                 id="parse_element-FLAT-ExprError-" + TOO_LONG),
    (parse_element, BIG, ExprError, TOO_BIG),
    (parse_element, "a0 a1", ExprError, "trailing input at token ('var', 'a1')"),
    (parse_tail, "m", ExprError, "unknown variable 'm'; expected n"),
    (parse_tail, "n/(n - n)", ZeroDivisionError, "division by zero in tail expression"),
    (parse_tail, "(n - n)^-3", ZeroDivisionError, "zero raised to a negative power"),
    (parse_tail, DEEP, ExprError, TOO_DEEP),
    pytest.param(parse_tail, FLAT, ExprError, TOO_LONG,
                 id="parse_tail-FLAT-ExprError-" + TOO_LONG),
    (parse_tail, BIG, ExprError, TOO_BIG),
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
        evaluate(text, int, {"n": 1}, lambda v: ())


def test_evaluate_folds_with_python_operators():
    assert evaluate("-(x + 2)^2 / 4 - 3*x", int, {"x": 6}, lambda v: ()) == -34.0


def test_size_cap_reads_each_value_built():
    top = {"x": 2 ** MAX_BITS - 1}
    assert evaluate("x - 1 + 1", int, top, lambda v: (v,)) == top["x"]
    with pytest.raises(ExprError, match=TOO_BIG):
        evaluate("x + 1 - 1", int, top, lambda v: (v,))


def test_large_coefficients_parse_back():
    # 33 terms whose coefficients take about 420,000 bits together, each
    # one at most 32 * 401 bits: every value read on the way is within
    # MAX_BITS, though the literals of the text are far past it.
    p, q = 2 ** 400 + 1, 3 ** 252
    x = (FieldElement.from_rational(Fraction(p, q)) + FieldElement.var(0)) ** 32
    text = format_element(x)
    assert sum(len(d) for d in re.findall(r"\d+", text)) > 100_000
    assert parse_element(text) == x


def test_coefficients_at_the_print_limit_parse_back():
    # a numerator of 4,300 digits, the most that prints, over 4,299 digits
    c = Fraction(10 ** 4300 - 1, 2 ** 14280)
    x = FieldElement({(1,): c, (0,): Fraction(1)}, {(1,): 1 / c, (0,): Fraction(1)}, 1)
    assert (x.num, x.den) == ({(1,): c, (0,): 1}, {(1,): 1 / c, (0,): 1})
    assert parse_element(format_element(x)) == x
    f = RatFunc([1 / c, c], [c, Fraction(1)])
    assert (f.num, f.den) == ((1 / c, c), (c, 1))
    assert parse_tail(format_tail(f)) == f


def test_256_term_element_parses_back():
    # every monomial a0^i*a1^j with i, j <= 15, no two coefficients alike
    num = {(i, j): Fraction(16 * i + j + 1, 7 if (i + j) % 2 else 1)
           for i in range(16) for j in range(16)}
    x = FieldElement(num, {(0, 0): Fraction(1)}, 2)
    text = format_element(x)
    assert len(x.num) == 256 and text.count(" + ") == 255
    assert parse_element(text) == x


exponents = st.tuples(st.integers(0, 15), st.integers(0, 15))
coefficients = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                         st.integers(1, 10**4))


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(exponents, coefficients, min_size=100, max_size=256),
       st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
def test_field_round_trip_of_long_sums(num, den):
    x = FieldElement(num, den, 2)
    assert parse_element(format_element(x)) == x


wide_coefficients = st.builds(Fraction, st.integers(-2**400, 2**400).filter(bool),
                              st.integers(1, 2**400))


@settings(max_examples=5, deadline=None)
@given(st.dictionaries(exponents, wide_coefficients, min_size=100, max_size=256),
       st.dictionaries(exponents, wide_coefficients, min_size=1, max_size=3))
def test_field_round_trip_with_wide_coefficients(num, den):
    x = FieldElement(num, den, 2)
    assert parse_element(format_element(x)) == x


tail_coefficients = st.lists(coefficients, min_size=20, max_size=65)


@settings(max_examples=6, deadline=None)
@given(tail_coefficients, tail_coefficients.filter(any))
def test_tail_round_trip_at_full_degree(num, den):
    f = RatFunc(num, den)
    assert parse_tail(format_tail(f)) == f


@settings(max_examples=5, deadline=None)
@given(st.lists(wide_coefficients, min_size=20, max_size=65),
       st.lists(wide_coefficients, min_size=1, max_size=65))
def test_tail_round_trip_with_wide_coefficients(num, den):
    f = RatFunc(num, den)
    assert parse_tail(format_tail(f)) == f


@settings(max_examples=5, deadline=None)
@given(st.lists(st.tuples(coefficients, st.integers(0, 20)),
                min_size=200, max_size=400))
def test_tail_sum_of_hundreds_of_terms(terms):
    coeffs = [Fraction(0)] * 21
    for c, k in terms:
        coeffs[k] += c
    text = " + ".join(f"({c})*n^{k}" for c, k in terms)
    assert parse_tail(text) == RatFunc(coeffs)


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
