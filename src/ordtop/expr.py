"""Tiny expression grammar shared by the field and sequence parsers.

Accepts integers, the caller's variable names, the operators
``+ - * / ^`` with the usual precedence, and parentheses.  ``^`` binds
tightest, requires an integer exponent, and is right-associative.
Produces a small tuple AST: ('num', n) | ('var', name) | ('neg', x)
| ('add'|'sub'|'mul'|'div', l, r) | ('pow', base, exponent).  Nesting
(parentheses and signs) and the depth of the AST are both capped at
MAX_DEPTH, so the recursive parser and evaluator stay far below the
interpreter's recursion limit, and a long flat sum or product cannot
make evaluation run for seconds; a deeper input raises ExprError.

The field and the sequence tails each supply only their leaves to
evaluate() and their monomial text to format_terms().  Plain numbers
in JSON payloads are read by number().
"""

import operator
import re
from fractions import Fraction

MAX_DEPTH = 150
# Python's default cap on int <-> text digits: a larger decimal exponent
# would make Fraction build a power of ten the program cannot print.
MAX_EXPONENT = 4300
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"

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
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append(("op", op))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.names = names
        self.pos = 0
        self.nesting = 0

    def nested(self, parse):
        """Run one sub-parse a nesting level deeper."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprError(_TOO_DEEP)
        node = parse()
        self.nesting -= 1
        return node

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

    def parse_sum(self):
        node = self.parse_product()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.parse_product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            rhs = self.parse_unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.nested(self.parse_unary))
        if self.peek() == ("op", "+"):
            self.take()
            return self.nested(self.parse_unary)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("pow", base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        neg = False
        if self.peek() == ("op", "-"):
            self.take()
            neg = True
        tok = self.take()
        if tok == ("op", "("):
            inner = self.nested(self.parse_exponent)
            self.expect_op(")")
            return -inner if neg else inner
        kind, value = tok
        if kind != "num":
            raise ExprError(f"exponent must be an integer, got {value!r}")
        return -value if neg else value

    def parse_atom(self):
        tok = self.take()
        kind, value = tok
        if kind == "num":
            return ("num", value)
        if kind == "var":
            if value not in self.names:
                first, last = self.names[0], self.names[-1]
                expected = first if first == last else f"{first}..{last}"
                raise ExprError(f"unknown variable {value!r}; expected {expected}")
            return ("var", value)
        if tok == ("op", "("):
            inner = self.nested(self.parse_sum)
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected token {value!r}")


def parse(text: str, names: tuple):
    """The AST of text, whose variables must be among names (in order:
    errors spell them as first..last)."""
    if not isinstance(text, str):
        raise ExprError(f"expression must be a string, got {type(text).__name__}")
    tokens = tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    parser = _Parser(tokens, names)
    ast = parser.parse_sum()
    if parser.pos != len(tokens):
        raise ExprError(f"trailing input at token {parser.tokens[parser.pos]!r}")
    if _depth(ast) > MAX_DEPTH:  # long flat sums and products nest to the left
        raise ExprError(_TOO_DEEP)
    return ast


def _depth(ast) -> int:
    """Number of nodes on the longest root-to-leaf path, without recursion."""
    best, stack = 0, [(ast, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((child, d + 1) for child in node[1:]
                     if isinstance(child, tuple))
    return best


# The binary AST nodes and the operators that evaluate() applies to them.
BINARY = {"add": operator.add, "sub": operator.sub,
          "mul": operator.mul, "div": operator.truediv}


def evaluate(ast, leaf):
    """Fold the AST with Python's operators; leaf(kind, value) gives the
    value of each 'num' and 'var' node."""
    kind = ast[0]
    if kind == "num" or kind == "var":
        return leaf(kind, ast[1])
    if kind == "neg":
        return -evaluate(ast[1], leaf)
    if kind == "pow":
        return evaluate(ast[1], leaf) ** ast[2]
    lhs = evaluate(ast[1], leaf)
    return BINARY[kind](lhs, evaluate(ast[2], leaf))


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
