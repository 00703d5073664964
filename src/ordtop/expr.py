"""Tiny expression grammar shared by the field and sequence parsers.

Accepts integers, the caller's variable names, the operators
``+ - * / ^`` with the usual precedence, and parentheses; ``^`` binds
tightest and takes one integer exponent.  evaluate() reads the text in
one pass and applies each operator as soon as its operands are read.
Three constant caps bound the work, and an input past one raises
ExprError.  Parentheses and signs nest at most MAX_DEPTH levels, which
keeps the recursive reader far below the interpreter's recursion limit;
chains of ``+ -`` and ``* /`` fold in a loop and add no level.  At most
MAX_TOKENS tokens bound the number of operations.  Every value built on
the way keeps each numerator and denominator within MAX_BITS bits, which
bounds the cost of each operation.  A canonical text meets that cap:
each value built while reading it holds some of the coefficients of the
value it prints.

The field and the sequence tails each supply only their numbers,
variables and coefficients to evaluate() and their monomial text to
format_terms().
Plain numbers in JSON payloads are read by number().
"""

import re
from fractions import Fraction

MAX_DEPTH = 150
MAX_TOKENS = 16384
# Above the 14,284 bits of a 4,300-digit integer, the largest
# coefficient that a canonical text can print.
MAX_BITS = 1 << 14
# Python's default cap on int <-> text digits: a larger decimal exponent
# would make Fraction build a power of ten the program cannot print.
MAX_EXPONENT = 4300

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class ExprError(ValueError):
    pass


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        if len(tokens) == MAX_TOKENS:
            raise ExprError(f"expression longer than {MAX_TOKENS} tokens")
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append(("op", op))
        pos = m.end()
    return tokens


def evaluate(text: str, number, variables: dict, coefficients):
    """The value of text under Python's operators: number(n) gives each
    integer literal n, variables maps each name that text may use to its
    value (in order: errors spell them as first..last), and
    coefficients(v) yields the rational coefficients of a value v.
    Unknown names are refused before anything is evaluated."""
    if not isinstance(text, str):
        raise ExprError(f"expression must be a string, got {type(text).__name__}")
    tokens = tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    for kind, value in tokens:
        if kind == "var" and value not in variables:
            names = list(variables)
            expected = names[0] if len(names) == 1 else f"{names[0]}..{names[-1]}"
            raise ExprError(f"unknown variable {value!r}; expected {expected}")
    reader = _Reader(tokens, number, variables, coefficients)
    value = reader.sum()
    if reader.pos != len(tokens):
        raise ExprError(f"trailing input at token {tokens[reader.pos]!r}")
    return value


class _Reader:
    """Recursive descent over a token list, folding as it reads."""

    def __init__(self, tokens, number, variables, coefficients):
        self.tokens = tokens
        self.number = number
        self.variables = variables
        self.coefficients = coefficients
        self.pos = self.nesting = 0

    def capped(self, value):
        if any(max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_BITS
               for c in self.coefficients(value)):
            raise ExprError(f"expression numbers pass the size cap of {MAX_BITS} bits")
        return value

    def nested(self, read):
        """Run one sub-read a nesting level deeper."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")
        value = read()
        self.nesting -= 1
        return value

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise ExprError(f"expected {op!r}, got {tok!r}")

    def sum(self):
        value = self.product()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.product()
            value = self.capped(value + rhs if op == "+" else value - rhs)
        return value

    def product(self):
        value = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            rhs = self.unary()
            value = self.capped(value * rhs if op == "*" else value / rhs)
        return value

    def unary(self):
        if self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            value = self.nested(self.unary)
            return -value if op == "-" else value
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            k = self.exponent()
            # the caller's own power cap is checked before the power runs
            value = self.capped(value ** k)
        return value

    def exponent(self) -> int:
        neg = self.peek() == ("op", "-")
        if neg:
            self.take()
        tok = self.take()
        if tok == ("op", "("):
            value = self.nested(self.exponent)
            self.expect_op(")")
        elif tok[0] == "num":
            value = tok[1]
        else:
            raise ExprError(f"exponent must be an integer, got {tok[1]!r}")
        return -value if neg else value

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return self.number(value)
        if kind == "var":
            return self.variables[value]
        if value == "(":
            inner = self.nested(self.sum)
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected token {value!r}")


def format_terms(terms) -> str:
    """Join (coefficient, monomial text) pairs as 'c*m + ... - ...'.

    Zero coefficients are dropped, an empty monomial stands for 1, and a
    coefficient of magnitude 1 is left out before a monomial; "0" when
    no term is left.
    """
    parts = []
    for c, mono in terms:
        if not c:
            continue
        a = abs(c)
        body = (mono if a == 1 else f"{a}*{mono}") if mono else str(a)
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def number(value) -> Fraction:
    """A payload number as a Fraction: an int, a finite float, or text
    that Fraction reads ("-3/4", "1.5e3") with a decimal exponent of at
    most MAX_EXPONENT; anything else raises ValueError."""
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        try:
            too_big = bool(e) and abs(int(exponent)) > MAX_EXPONENT
        except ValueError:  # not an exponent: Fraction refuses the text
            too_big = False
        if too_big:
            raise ValueError(f"number {value[:40]!r} has a decimal exponent "
                             f"beyond {MAX_EXPONENT}")
    try:
        return Fraction(value)
    except (TypeError, OverflowError):  # another type, or an infinite float
        raise ValueError(f"expected a finite number, got {value!r:.40}") from None
